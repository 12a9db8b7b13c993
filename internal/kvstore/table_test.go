package kvstore

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"time"
)

// serveRaw runs cmds through one connection's serve/settle path and
// returns the raw reply bytes.
func serveRaw(t *testing.T, srv *Server, cmds ...[]string) string {
	t.Helper()
	var buf bytes.Buffer
	rw := newRespWriter(bufio.NewWriter(&buf))
	ce := srv.newConnExec()
	for _, c := range cmds {
		args := make([][]byte, len(c))
		for i, a := range c {
			args[i] = []byte(a)
		}
		ce.serve(rw, canonicalCommand(args[0]), args)
	}
	ce.settle(rw)
	if err := rw.flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEveryRowHasAnArity: every row states its arity and exactly one way
// to run, and a keyed row accepts no call without its first key, so
// redirect and firstKey can read args[1].
func TestEveryRowHasAnArity(t *testing.T) {
	for i := range commandList {
		sp := &commandList[i]
		if sp.arity == 0 {
			t.Errorf("%s has no arity", sp.name)
		}
		ways := 0
		for _, set := range []bool{sp.op != 0, sp.run != nil, sp.hooked} {
			if set {
				ways++
			}
		}
		if ways != 1 {
			t.Errorf("%s has %d ways to run, want 1", sp.name, ways)
		}
		if sp.op != 0 && (sp.decode == nil || sp.keys == keysNone) {
			t.Errorf("%s is a batch row without a decoder or keys", sp.name)
		}
		if sp.keys != keysNone && sp.arityOK(1) {
			t.Errorf("%s is keyed but accepts a call without a key", sp.name)
		}
	}
}

// shortCallReplies is the reply to every row's bare name on a server
// without a cluster hook, as the switch-based dispatcher wrote them.
// INFO's text varies, so only its bulk header's first byte is pinned.
var shortCallReplies = map[string]string{
	"GET":  "-ERR wrong number of arguments for 'get'\r\n",
	"SET":  "-ERR wrong number of arguments for 'set'\r\n",
	"DEL":  "-ERR wrong number of arguments for 'del'\r\n",
	"INCR": "-ERR wrong number of arguments\r\n", "DECR": "-ERR wrong number of arguments\r\n",
	"INCRBY": "-ERR wrong number of arguments\r\n", "DECRBY": "-ERR wrong number of arguments\r\n",
	"APPEND":   "-ERR wrong number of arguments for 'append'\r\n",
	"STRLEN":   "-ERR wrong number of arguments for 'strlen'\r\n",
	"EXISTS":   "-ERR wrong number of arguments for 'exists'\r\n",
	"EXPIRE":   "-ERR wrong number of arguments for 'expire'\r\n",
	"TTL":      "-ERR wrong number of arguments for 'ttl'\r\n",
	"PERSIST":  "-ERR wrong number of arguments for 'persist'\r\n",
	"MGET":     "-ERR wrong number of arguments for 'mget'\r\n",
	"MSET":     "-ERR wrong number of arguments for 'mset'\r\n",
	"PING":     "+PONG\r\n",
	"QUIT":     "+OK\r\n",
	"KEYS":     "-ERR wrong number of arguments for 'keys'\r\n",
	"DBSIZE":   ":0\r\n",
	"FLUSHALL": "+OK\r\n",
	"INFO":     "$",
	"LPUSH":    "-ERR wrong number of arguments\r\n", "RPUSH": "-ERR wrong number of arguments\r\n",
	"LPOP": "-ERR wrong number of arguments\r\n", "RPOP": "-ERR wrong number of arguments\r\n",
	"LLEN":    "-ERR wrong number of arguments for 'llen'\r\n",
	"LRANGE":  "-ERR wrong number of arguments for 'lrange'\r\n",
	"HSET":    "-ERR wrong number of arguments for 'hset'\r\n",
	"HGET":    "-ERR wrong number of arguments for 'hget'\r\n",
	"HDEL":    "-ERR wrong number of arguments for 'hdel'\r\n",
	"HLEN":    "-ERR wrong number of arguments for 'hlen'\r\n",
	"HEXISTS": "-ERR wrong number of arguments for 'hexists'\r\n",
	"HGETALL": "-ERR wrong number of arguments for 'hgetall'\r\n",
	"CLUSTER": "-ERR unknown command 'cluster'\r\n",
	"RSET":    "-ERR unknown command 'rset'\r\n",
	"RDEL":    "-ERR unknown command 'rdel'\r\n",
	"WAIT":    "-ERR unknown command 'wait'\r\n",
}

func TestShortCallReplies(t *testing.T) {
	st, _ := newStore(t, 0)
	srv := NewServer(st, func(string, ...any) {})
	for i := range commandList {
		name := commandList[i].name
		want, ok := shortCallReplies[name]
		if !ok {
			t.Errorf("%s: no pinned reply", name)
			continue
		}
		got := serveRaw(t, srv, []string{strings.ToLower(name)})
		if name == "INFO" {
			got = got[:1]
		}
		if got != want {
			t.Errorf("%s: reply %q, want %q", name, got, want)
		}
	}
	// A pair short of whole, and a hooked row past its most arguments.
	if got, want := serveRaw(t, srv, []string{"MSET", "a", "1", "b"}), "-ERR wrong number of arguments for 'mset'\r\n"; got != want {
		t.Errorf("MSET with a dangling key: %q, want %q", got, want)
	}
	h := &fixedHook{}
	srv.SetCluster(h)
	for _, c := range [][]string{{"RSET", "k"}, {"RSET", "k", "v", "1", "x"}, {"RDEL"}, {"RDEL", "k", "1", "x"}} {
		want := "-ERR wrong number of arguments for '" + strings.ToLower(c[0]) + "'\r\n"
		if got := serveRaw(t, srv, c); got != want {
			t.Errorf("%q with a hook: %q, want %q", c, got, want)
		}
	}
	if h.handled != 0 {
		t.Errorf("the hook served %d calls of the wrong arity", h.handled)
	}
}

// fixedHook owns every key and counts the calls it serves.
type fixedHook struct{ handled int }

func (h *fixedHook) Redirect([]byte) string     { return "" }
func (h *fixedHook) Moved()                     {}
func (h *fixedHook) NewSession() ClusterSession { return nil }
func (h *fixedHook) Handle(_ ClusterSession, _ string, _ [][]byte, rw ReplyWriter) {
	h.handled++
	rw.WriteSimple("HOOK")
}
func (h *fixedHook) OnApply(ClusterSession, Op, string, []byte) {}

// TestInlineSlowlogKey: an inline command's slowlog key is its row's
// first key, and a keyless command records none.
func TestInlineSlowlogKey(t *testing.T) {
	st, _ := newAttribStore(t, time.Nanosecond, 16)
	srv := NewServer(st, func(string, ...any) {})
	serveRaw(t, srv, []string{"HSET", "h", "f", "v"}, []string{"KEYS", "*"}, []string{"HGET", "h", "f"})
	keys := map[string]string{}
	for _, e := range st.SlowLog() {
		keys[e.Cmd] = e.Key
	}
	if k, ok := keys["KEYS"]; !ok || k != "" {
		t.Errorf("slow KEYS * recorded key %q (logged %v), want none", k, ok)
	}
	if k := keys["HGET"]; k != "h" {
		t.Errorf("slow HGET h f recorded key %q, want h", k)
	}
}
