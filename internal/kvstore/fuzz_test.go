package kvstore

import (
	"bufio"
	"bytes"
	"strconv"
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

// FuzzPipelinedCommandsMatchModel sends a pipeline of keyed commands,
// decoded from the input, over four equal-length keys through serveConn
// at the depth the input's first byte picks, and compares the reply
// stream byte for byte with the sequential model behind
// TestEveryEntryPointMatchesModel. Keys borrow the connection's arena,
// and equal-length keys land on each other's arena bytes from one
// settle to the next, so a key kept past its settle reads as another
// key — or as cleared bytes — and the replies drift from the model.
func FuzzPipelinedCommandsMatchModel(f *testing.F) {
	f.Add([]byte{15, 1, 0, 0, 0, 3, 0, 9, 0, 11, 1, 12, 0})
	f.Add([]byte{0, 1, 2, 10, 2, 10, 2, 12, 2, 0, 2})
	f.Add([]byte{7, 14, 5, 1, 6, 13, 3, 4, 3, 8, 1, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		depth := 1 + int(data[0]%16)
		cmds := pipelineCommands(data[1:])
		r := newModelRun(t, 2, nil)
		var want []byte
		for _, c := range cmds {
			reply, _ := r.m.apply(c)
			want = append(want, reply...)
		}
		got, _ := runScript(t, NewServer(r.st, func(string, ...any) {}), cmds, depth)
		if !bytes.Equal(got, want) {
			t.Fatalf("depth %d, commands %q:\ngot:   %q\nmodel: %q", depth, cmds, got, want)
		}
	})
}

// pipelineCommands decodes data, two bytes per command, into at most 64
// keyed commands over the keys k0..k3: the first byte picks the command,
// the second its keys and arguments.
func pipelineCommands(data []byte) [][]string {
	var cmds [][]string
	for i := 0; i+1 < len(data) && len(cmds) < 64; i += 2 {
		op, arg := data[i], int(data[i+1])
		k, k2 := "k"+strconv.Itoa(arg%4), "k"+strconv.Itoa(arg/4%4)
		val := strings.Repeat(string(rune('a'+arg%26)), 1+arg%7)
		if arg%3 == 0 {
			val = strconv.Itoa(arg - 128) // INCR-able
		}
		var c []string
		switch op % 15 {
		case 0:
			c = []string{"GET", k}
		case 1:
			c = []string{"SET", k, val}
		case 2:
			c = []string{"DEL", k, k2}
		case 3:
			c = []string{"INCR", k}
		case 4:
			c = []string{"DECRBY", k, strconv.Itoa(arg % 9)}
		case 5:
			c = []string{"APPEND", k, val}
		case 6:
			c = []string{"STRLEN", k}
		case 7:
			c = []string{"EXISTS", k}
		case 8:
			c = []string{"EXPIRE", k, strconv.Itoa(arg % 3)}
		case 9:
			c = []string{"TTL", k}
		case 10:
			c = []string{"PERSIST", k}
		case 11:
			c = []string{"MGET", k, k2}
		case 12:
			c = []string{"MSET", k, val, k2, val}
		case 13:
			c = []string{"INCRBY", k, val}
		default:
			c = []string{"DEL", k}
		}
		cmds = append(cmds, c)
	}
	return cmds
}
