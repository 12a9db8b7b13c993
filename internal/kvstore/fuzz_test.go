package kvstore

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCommand feeds arbitrary bytes into the RESP request parser: it
// must never panic and never return absurd argument counts.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("SET key value\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1000000000\r\nx\r\n"))
	f.Add([]byte("\r\n\r\n\r\n"))
	f.Add([]byte{0xff, 0x00, '*', '9'})
	// A long newline-free stream must hit the line cap, not grow memory
	// without bound.
	f.Add(bytes.Repeat([]byte{'A'}, maxLine+100))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := newCmdReader(bufio.NewReader(bytes.NewReader(data)))
		for i := 0; i < 8; i++ { // parse a few commands per input
			args, err := cr.ReadCommand()
			if err != nil {
				return
			}
			if len(args) > maxArgs {
				t.Fatalf("parser returned %d args", len(args))
			}
		}
	})
}

// FuzzReadReply feeds arbitrary bytes into the RESP reply parser.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("$3\r\nabc\r\n"))
	f.Add([]byte("-ERR nope\r\n"))
	f.Add([]byte("$99999999999\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		v, _, err := readReply(r)
		if err == nil && len(v) > maxBulk {
			t.Fatalf("reply parser returned %d bytes", len(v))
		}
	})
}

// FuzzServerCommand drives the full server path with arbitrary argument
// vectors, each at depth 1 (enqueue one, settle at once) and pipelined
// behind a write to the same key on a second store: no panic, one reply
// per command, byte-identical replies in both modes, and the store stays
// consistent.
func FuzzServerCommand(f *testing.F) {
	f.Add("SET k v")
	f.Add("GET k")
	f.Add("INCRBY n 10")
	f.Add("MGET a b c")
	f.Add("DEL a b")
	f.Add("APPEND k \x00\xff")
	f.Add("MSET a")
	f.Add("EXPIRE k -1")
	f.Add("decrby k x")
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return
		}
		args := make([][]byte, len(fields))
		for i, a := range fields {
			args[i] = []byte(a)
		}
		// The preamble gives keyed commands something to hit; the fuzzed
		// command follows it either settled apart or in the same batch.
		script := [][][]byte{{[]byte("SET"), []byte("k"), []byte("7")}, args}
		run := func(pipelined bool) []byte {
			st, _ := newStore(t, 64)
			ce := NewServer(st, func(string, ...any) {}).newConnExec()
			var out bytes.Buffer
			rw := newRespWriter(bufio.NewWriter(&out))
			for _, a := range script {
				ce.serve(rw, canonicalCommand(a[0]), a)
				if !pipelined {
					ce.settle(rw)
				}
			}
			ce.settle(rw)
			if err := rw.flush(); err != nil {
				t.Fatal(err)
			}
			// Store must still respond after arbitrary commands.
			if err := st.Set("sanity", []byte("1")); err != nil {
				t.Fatalf("store broken after %q: %v", line, err)
			}
			return out.Bytes()
		}
		serial, piped := run(false), run(true)
		if len(serial) <= len("+OK\r\n") {
			t.Fatalf("command %q produced no reply: %q", line, serial)
		}
		if !bytes.Equal(serial, piped) {
			t.Fatalf("depth-1 and pipelined replies differ for %q:\nserial: %q\npiped:  %q", line, serial, piped)
		}
	})
}
