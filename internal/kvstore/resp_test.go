package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
)

func TestAsciiInt(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"-1", -1, true},
		{"+7", 7, true},
		{"", 0, false},
		{"-", 0, false},
		{"1x", 0, false},
		{" 1", 0, false},
		{"999999999999999999", 999999999999999999, true},
		{"9999999999999999999", 0, false}, // 19 digits: rejected
	}
	for _, c := range cases {
		got, ok := asciiInt([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("asciiInt(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func parseAll(t *testing.T, input string) ([][]string, error) {
	t.Helper()
	cr := newCmdReader(bufio.NewReader(strings.NewReader(input)))
	var out [][]string
	for {
		args, err := cr.ReadCommand()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if args == nil {
			continue
		}
		cmd := make([]string, len(args))
		for i, a := range args {
			cmd[i] = string(a)
		}
		out = append(out, cmd)
	}
}

func TestReadCommandForms(t *testing.T) {
	got, err := parseAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n\r\nGET k\r\n")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"SET", "k", "vv"}, {"GET", "k"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

// TestReadCommandLineCap is the parser-DoS regression: a hostile client
// streaming a header or inline line with no newline must hit a bounded
// protocol error instead of growing memory without limit.
func TestReadCommandLineCap(t *testing.T) {
	long := strings.Repeat("A", maxLine+1)
	for _, in := range []string{
		long,                // inline, never terminated
		long + "\r\n",       // inline, terminated but oversized
		"*" + long + "\r\n", // oversized array header
	} {
		_, err := parseAll(t, in)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("input len %d: err = %v, want ErrProtocol", len(in), err)
		}
	}
	// Just under the cap still parses (as an inline command).
	got, err := parseAll(t, strings.Repeat("B", 1000)+"\r\n")
	if err != nil || len(got) != 1 {
		t.Fatalf("under-cap line: %v, %v", got, err)
	}
}

func TestReadCommandBounds(t *testing.T) {
	if _, err := parseAll(t, fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\nx\r\n", maxBulk+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized bulk: %v", err)
	}
	if _, err := parseAll(t, fmt.Sprintf("*%d\r\n", maxArgs+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized arity: %v", err)
	}
}

func TestReplyReaderErrors(t *testing.T) {
	rr := replyReader{lr: lineReader{r: bufio.NewReader(strings.NewReader("-ERR boom\r\n+OK\r\n"))}}
	_, _, err := rr.read()
	var re ReplyError
	if !errors.As(err, &re) || string(re) != "boom" {
		t.Fatalf("err = %#v, want ReplyError(boom)", err)
	}
	v, ok, err := rr.read()
	if err != nil || !ok || string(v) != "OK" {
		t.Fatalf("after error reply: %q, %v, %v", v, ok, err)
	}
}

// countingConn wraps a net.Conn and counts Write calls — the syscall
// proxy for the flush-coalescing assertions.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// runScript drives srv.serveConn over a pipe, writing the commands in
// batches of batch (batch <= 1 means one command per write, waiting for
// each reply: the per-command-flush oracle). It returns the raw reply
// bytes and the number of server-side Write calls.
func runScript(t *testing.T, srv *Server, cmds [][]string, batch int) ([]byte, int64) {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	cc := &countingConn{Conn: serverEnd}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(cc)
	}()

	var raw bytes.Buffer
	rr := replyReader{lr: lineReader{r: bufio.NewReader(io.TeeReader(clientEnd, &raw))}}
	readReplies := func(n int) {
		for i := 0; i < n; i++ {
			// An array reply (MGET) is its header plus that many elements.
			elems := 1
			if b, err := rr.lr.r.Peek(1); err == nil && b[0] == '*' {
				hdr, _ := rr.lr.readLine()
				elems, _ = asciiInt(hdr[1:])
			}
			for ; elems > 0; elems-- {
				if _, _, err := rr.read(); err != nil {
					if _, isReply := err.(ReplyError); !isReply {
						t.Errorf("reply %d: %v", i, err)
						return
					}
				}
			}
		}
	}
	if batch < 1 {
		batch = 1
	}
	for start := 0; start < len(cmds); start += batch {
		end := start + batch
		if end > len(cmds) {
			end = len(cmds)
		}
		var req []byte
		for _, c := range cmds[start:end] {
			req = appendCommand(req, c...)
		}
		werr := make(chan error, 1)
		go func() { _, err := clientEnd.Write(req); werr <- err }()
		readReplies(end - start)
		if err := <-werr; err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	clientEnd.Close()
	<-done
	return raw.Bytes(), cc.writes.Load()
}

func TestLoadGenDefaults(t *testing.T) {
	cases := []struct {
		name             string
		in               LoadGenConfig
		wantReadFraction float64
		wantSkew         float64
		wantErr          bool
	}{
		{"zero-config", LoadGenConfig{}, 0, DefaultSkew, false},
		{"negative-read-fraction-defaults", LoadGenConfig{ReadFraction: -1}, DefaultReadFraction, DefaultSkew, false},
		{"explicit-write-only-honored", LoadGenConfig{ReadFraction: 0}, 0, DefaultSkew, false},
		{"explicit-read-fraction-kept", LoadGenConfig{ReadFraction: 0.5}, 0.5, DefaultSkew, false},
		{"read-fraction-over-one-rejected", LoadGenConfig{ReadFraction: 1.5}, 1.5, DefaultSkew, true},
		{"zero-skew-defaults", LoadGenConfig{Skew: 0}, 0, DefaultSkew, false},
		{"negative-skew-defaults", LoadGenConfig{Skew: -2}, 0, DefaultSkew, false},
		{"low-skew-rejected", LoadGenConfig{Skew: 0.99}, 0, 0.99, true},
		{"skew-one-rejected", LoadGenConfig{Skew: 1}, 0, 1, true},
		{"high-skew-kept", LoadGenConfig{Skew: 1.01}, 0, 1.01, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.in
			cfg.setDefaults()
			err := cfg.validate()
			if (err != nil) != c.wantErr {
				t.Fatalf("validate() = %v, wantErr=%v", err, c.wantErr)
			}
			if cfg.ReadFraction != c.wantReadFraction {
				t.Errorf("ReadFraction = %v, want %v", cfg.ReadFraction, c.wantReadFraction)
			}
			if cfg.Skew != c.wantSkew {
				t.Errorf("Skew = %v, want %v", cfg.Skew, c.wantSkew)
			}
		})
	}
	// RunLoad surfaces validation errors instead of dialling.
	if _, err := RunLoad(LoadGenConfig{Addr: "127.0.0.1:1", Requests: 10, Skew: 0.5}); err == nil {
		t.Fatal("RunLoad accepted Zipf skew 0.5")
	}
}

// TestLoadGenPipelined exercises the batched client path end to end.
func TestLoadGenPipelined(t *testing.T) {
	_, addr, _, _ := startKV(t)
	res, err := RunLoad(LoadGenConfig{
		Addr: addr, Conns: 2, Requests: 4000, Pipeline: 16,
		ReadFraction: 0.8, Keys: 500, ValueBytes: 128, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets == 0 || res.Sets == 0 {
		t.Fatalf("ops: gets=%d sets=%d", res.Gets, res.Sets)
	}
	if res.Gets+res.Sets < int64(res.Requests) {
		t.Fatalf("only %d ops for %d requests", res.Gets+res.Sets, res.Requests)
	}
	if res.HitRate() == 0 {
		t.Fatal("zipf + refill workload never hit")
	}
}

// TestClientPipeline checks ordering, per-command errors, and reuse.
func TestClientPipeline(t *testing.T) {
	_, addr, _, _ := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	pl := cli.Pipeline()
	pl.Command("SET", "a", "1")
	pl.Command("INCR", "a")
	pl.Command("GET", "a")
	pl.Command("SET") // arity error mid-batch
	pl.Command("GET", "nope")
	var got []string
	if err := pl.Exec(func(i int, v []byte, ok bool, err error) {
		switch {
		case err != nil:
			got = append(got, "err:"+err.Error())
		case !ok:
			got = append(got, "nil")
		default:
			got = append(got, string(v))
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"OK", "2", "2", "err:wrong number of arguments for 'set'", "nil"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pipeline replies %v, want %v", got, want)
	}
	if pl.Len() != 0 {
		t.Fatalf("pipeline not reset: %d queued", pl.Len())
	}
	// The pipeline is reusable after Exec.
	pl.Command("GET", "a")
	if err := pl.Exec(func(i int, v []byte, ok bool, err error) {
		if err != nil || !ok || string(v) != "2" {
			t.Errorf("reuse reply %q, %v, %v", v, ok, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
