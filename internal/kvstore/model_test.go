package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// The reference for every keyed string command: a sequential model — a
// plain Go map plus deadlines on the injected clock — that knows nothing
// of shards, locks, batches or the server's command table. One seeded
// script runs through each entry point (direct Store methods, Batch,
// RESP at depth 1, RESP at depth 16) and every reply, and the final
// contents, must match the model byte for byte. Now that all four share
// one exec, comparing them to each other would prove nothing.

// step is one script entry: a RESP command, or (args == nil) a clock
// advance followed by a TTL sweep when sweep is set.
type step struct {
	args    []string
	advance time.Duration
	sweep   bool
}

type model struct {
	data map[string][]byte
	dl   map[string]time.Time
	now  time.Time
}

// expire collects k when its deadline has passed.
func (m *model) expire(k string) bool {
	d, ok := m.dl[k]
	if !ok || m.now.Before(d) {
		return false
	}
	delete(m.dl, k)
	_, had := m.data[k]
	delete(m.data, k)
	return had
}

func (m *model) sweep() int {
	n := 0
	for k := range m.dl {
		if m.expire(k) {
			n++
		}
	}
	return n
}

func respInt(n int64) []byte    { return []byte(":" + strconv.FormatInt(n, 10) + "\r\n") }
func respErr(msg string) []byte { return []byte("-ERR " + msg + "\r\n") }
func respBool(b bool) []byte {
	if b {
		return respInt(1)
	}
	return respInt(0)
}
func respBulk(v []byte, ok bool) []byte {
	if !ok {
		return []byte("$-1\r\n")
	}
	return []byte("$" + strconv.Itoa(len(v)) + "\r\n" + string(v) + "\r\n")
}

// modelInt mirrors the server's integer-argument rule for the inputs the
// script generates (plain decimals with an optional sign, or junk).
func modelInt(s string) (int64, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// apply runs one RESP command against the model and returns the reply
// the server must produce. valid is false when the command is rejected
// before execution (unknown name, arity, bad integer) — such steps have
// no direct-API or Batch form.
func (m *model) apply(args []string) (reply []byte, valid bool) {
	name := strings.ToUpper(args[0])
	lower := strings.ToLower(args[0])
	arity := func(ok bool) bool {
		if ok {
			return true
		}
		switch name {
		case "INCR", "DECR", "INCRBY", "DECRBY":
			reply = respErr("wrong number of arguments")
		default:
			reply = respErr("wrong number of arguments for '" + lower + "'")
		}
		return false
	}
	n := len(args)
	switch name {
	case "SET":
		if !arity(n == 3) {
			return reply, false
		}
		m.data[args[1]] = []byte(args[2])
		delete(m.dl, args[1]) // a SET discards the key's deadline
		return []byte("+OK\r\n"), true
	case "MSET":
		if !arity(n >= 3 && n%2 == 1) {
			return reply, false
		}
		for i := 1; i < n; i += 2 {
			m.data[args[i]] = []byte(args[i+1])
			delete(m.dl, args[i])
		}
		return []byte("+OK\r\n"), true
	case "GET":
		if !arity(n == 2) {
			return reply, false
		}
		m.expire(args[1])
		v, ok := m.data[args[1]]
		return respBulk(v, ok), true
	case "MGET":
		if !arity(n >= 2) {
			return reply, false
		}
		reply = []byte("*" + strconv.Itoa(n-1) + "\r\n")
		for _, k := range args[1:] {
			m.expire(k)
			v, ok := m.data[k]
			reply = append(reply, respBulk(v, ok)...)
		}
		return reply, true
	case "DEL":
		if !arity(n >= 2) {
			return reply, false
		}
		removed := int64(0)
		for _, k := range args[1:] {
			if _, ok := m.data[k]; ok {
				removed++
			}
			delete(m.data, k)
			delete(m.dl, k)
		}
		return respInt(removed), true
	case "INCR", "DECR", "INCRBY", "DECRBY":
		delta := int64(1)
		if name == "INCRBY" || name == "DECRBY" {
			if !arity(n == 3) {
				return reply, false
			}
			var ok bool
			if delta, ok = modelInt(args[2]); !ok {
				return respErr("value is not an integer or out of range"), false
			}
		} else if !arity(n == 2) {
			return reply, false
		}
		if name[0] == 'D' {
			delta = -delta
		}
		k := args[1]
		m.expire(k)
		cur := int64(0)
		if v, ok := m.data[k]; ok {
			var isInt bool
			if cur, isInt = modelInt(string(v)); !isInt {
				return respErr(fmt.Sprintf("kvstore: value at %q is not an integer", k)), true
			}
		}
		m.data[k] = []byte(strconv.FormatInt(cur+delta, 10))
		return respInt(cur + delta), true
	case "APPEND":
		if !arity(n == 3) {
			return reply, false
		}
		m.expire(args[1])
		m.data[args[1]] = append(m.data[args[1]], args[2]...)
		return respInt(int64(len(m.data[args[1]]))), true
	case "STRLEN":
		if !arity(n == 2) {
			return reply, false
		}
		m.expire(args[1])
		return respInt(int64(len(m.data[args[1]]))), true
	case "EXISTS":
		if !arity(n == 2) {
			return reply, false
		}
		m.expire(args[1])
		_, ok := m.data[args[1]]
		return respBool(ok), true
	case "EXPIRE":
		if !arity(n == 3) {
			return reply, false
		}
		secs, ok := modelInt(args[2])
		if !ok || secs < 0 {
			return respErr("invalid expire time"), false
		}
		// No expiry check first: EXPIRE on a due-but-uncollected key
		// re-arms it, as the store does.
		if _, ok := m.data[args[1]]; !ok {
			return respInt(0), true
		}
		m.dl[args[1]] = m.now.Add(time.Duration(secs) * time.Second)
		return respInt(1), true
	case "TTL":
		if !arity(n == 2) {
			return reply, false
		}
		m.expire(args[1])
		if _, ok := m.data[args[1]]; !ok {
			return respInt(-2), true
		}
		d, ok := m.dl[args[1]]
		if !ok {
			return respInt(-1), true
		}
		return respInt(int64((d.Sub(m.now) + time.Second - 1) / time.Second)), true
	case "PERSIST":
		if !arity(n == 2) {
			return reply, false
		}
		_, has := m.dl[args[1]]
		if _, ok := m.data[args[1]]; !ok || !has {
			return respInt(0), true
		}
		delete(m.dl, args[1])
		return respInt(1), true
	case "FLUSHALL":
		clear(m.data)
		clear(m.dl)
		return []byte("+OK\r\n"), true
	}
	return respErr("unknown command '" + args[0] + "'"), false
}

// modelScript builds the seeded script: every keyed command, multi-key
// forms, case-folded names, wrong arity, non-integer arguments, an
// unknown command, clock advances and sweeps, FLUSHALL — each one over
// a key holding a deadline, which is set again afterwards and read once
// the clock has passed the flushed deadline — and a SET over a deadline.
func modelScript(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	key := func() string { return "k" + strconv.Itoa(rng.Intn(10)) }
	val := func() string {
		if rng.Intn(3) == 0 {
			return strconv.Itoa(rng.Intn(2000) - 1000) // INCR-able
		}
		return strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(40)) + "\x00\r\n"
	}
	keys := func() []string {
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = key()
		}
		return out
	}
	var script []step
	for len(script) < n {
		if rng.Intn(30) == 0 {
			script = append(script, step{advance: time.Duration(rng.Intn(3000)) * time.Millisecond, sweep: rng.Intn(2) == 0})
			continue
		}
		if rng.Intn(75) == 0 {
			k := key()
			script = append(script,
				step{args: []string{"SET", k, val()}}, step{args: []string{"EXPIRE", k, "1"}},
				step{args: []string{[]string{"FLUSHALL", "flushall"}[rng.Intn(2)]}},
				step{args: []string{"SET", k, val()}}, step{args: []string{"TTL", k}},
				step{advance: 2 * time.Second, sweep: rng.Intn(2) == 0},
				step{args: []string{"GET", k}})
			continue
		}
		if rng.Intn(75) == 0 {
			// A SET discards the key's deadline, lapsed and not yet
			// collected (no read, no sweep in between) or still running.
			k, j := key(), key()
			script = append(script,
				step{args: []string{"SET", k, val()}}, step{args: []string{"EXPIRE", k, "1"}},
				step{advance: 2 * time.Second},
				step{args: []string{"SET", k, val()}}, step{args: []string{"GET", k}},
				step{args: []string{"SET", j, val()}}, step{args: []string{"EXPIRE", j, "10"}},
				step{args: []string{[]string{"SET", "MSET"}[rng.Intn(2)], j, val()}}, step{args: []string{"TTL", j}})
			continue
		}
		var a []string
		switch rng.Intn(22) {
		case 0, 1, 2:
			a = []string{"SET", key(), val()}
		case 3, 4, 5:
			a = []string{"GET", key()}
		case 6:
			a = append([]string{"DEL"}, keys()...)
		case 7:
			a = []string{"MSET"}
			for _, k := range keys() {
				a = append(a, k, val())
			}
		case 8:
			a = append([]string{"MGET"}, keys()...)
		case 9:
			a = []string{[]string{"INCR", "DECR", "incr"}[rng.Intn(3)], key()}
		case 10:
			a = []string{[]string{"INCRBY", "DECRBY"}[rng.Intn(2)], key(), []string{"7", "-3", "+12"}[rng.Intn(3)]}
		case 11:
			a = []string{"APPEND", key(), val()}
		case 12:
			a = []string{"STRLEN", key()}
		case 13:
			a = []string{"EXISTS", key()}
		case 14, 15:
			a = []string{"EXPIRE", key(), strconv.Itoa(rng.Intn(4))}
		case 16, 17:
			a = []string{"TTL", key()}
		case 18:
			a = []string{"PERSIST", key()}
		case 19: // wrong arity: one argument too few or too many
			valid := [][]string{{"SET", "k", "v"}, {"GET", "k"}, {"DEL", "k"}, {"MSET", "k", "v"}, {"MGET", "k"},
				{"INCR", "k"}, {"DECRBY", "k", "1"}, {"APPEND", "k", "v"}, {"STRLEN", "k"}, {"EXISTS", "k"},
				{"EXPIRE", "k", "1"}, {"TTL", "k"}, {"PERSIST", "k"}}[rng.Intn(13)]
			if multi := valid[0] == "DEL" || valid[0] == "MGET"; multi || rng.Intn(2) == 0 {
				a = valid[:len(valid)-1]
			} else {
				a = append(append([]string{}, valid...), "extra")
			}
		case 20: // bad integer arguments
			a = [][]string{{"INCRBY", key(), "abc"}, {"DECRBY", key(), "1.5"}, {"EXPIRE", key(), "-5"},
				{"EXPIRE", key(), "soon"}, {"INCRBY", key(), ""}}[rng.Intn(5)]
		default:
			a = []string{"BOGUS", key()}
		}
		script = append(script, step{args: a})
	}
	return script
}

// isFlush reports a FLUSHALL step: the one command of the script with no
// typed form, which the direct and Batch runs issue as Store.FlushAll.
func isFlush(args []string) bool { return strings.EqualFold(args[0], "FLUSHALL") }

// flushAll is that call, rendered as the reply FLUSHALL owes.
func flushAll(st *Store) []byte {
	if err := st.FlushAll(); err != nil {
		return respErr(err.Error())
	}
	return []byte("+OK\r\n")
}

// slots decodes a valid keyed step into the typed commands it stands for
// — the test's own decoding, independent of the server's table.
func slots(args []string) []Command {
	one := func(op Op) []Command { return []Command{{Op: op, Key: args[1]}} }
	switch name := strings.ToUpper(args[0]); name {
	case "SET", "APPEND":
		c := one(map[string]Op{"SET": OpSet, "APPEND": OpAppend}[name])
		c[0].Arg = []byte(args[2])
		return c
	case "MSET":
		var out []Command
		for i := 1; i < len(args); i += 2 {
			out = append(out, Command{Op: OpSet, Key: args[i], Arg: []byte(args[i+1])})
		}
		return out
	case "MGET", "DEL":
		var out []Command
		for _, k := range args[1:] {
			out = append(out, Command{Op: map[string]Op{"MGET": OpGet, "DEL": OpDel}[name], Key: k})
		}
		return out
	case "INCR", "DECR", "INCRBY", "DECRBY":
		c := one(OpIncr)
		c[0].Delta = 1
		if len(args) == 3 {
			c[0].Delta, _ = modelInt(args[2])
		}
		if name[0] == 'D' {
			c[0].Delta = -c[0].Delta
		}
		return c
	case "EXPIRE":
		c := one(OpExpire)
		secs, _ := modelInt(args[2])
		c[0].Delta = secs * int64(time.Second)
		return c
	default:
		return one(map[string]Op{"GET": OpGet, "STRLEN": OpStrLen, "EXISTS": OpExists, "TTL": OpTTL, "PERSIST": OpPersist}[name])
	}
}

// direct executes one typed command through the Store's named methods.
func direct(st *Store, c *Command) {
	switch c.Op {
	case OpGet:
		c.Val, c.Ok, c.Err = st.Get(c.Key)
	case OpSet:
		c.Err = st.Set(c.Key, c.Arg)
	case OpDel:
		if c.Ok, c.Err = st.Del(c.Key); c.Ok {
			c.N = 1
		}
	case OpIncr:
		c.N, c.Err = st.Incr(c.Key, c.Delta)
	case OpAppend:
		var n int
		n, c.Err = st.Append(c.Key, c.Arg)
		c.N = int64(n)
	case OpStrLen:
		c.N = int64(st.StrLen(c.Key))
	case OpExists:
		c.Ok = st.Exists(c.Key)
	case OpExpire:
		c.Ok = st.Expire(c.Key, time.Duration(c.Delta))
	case OpTTL:
		d, exists, hasTTL := st.TTL(c.Key)
		c.Ok, c.N = exists, -1
		if hasTTL {
			c.N = int64(d)
		}
	case OpPersist:
		c.Ok = st.Persist(c.Key)
	}
}

// render encodes a step's executed slots as the RESP reply the command
// named args[0] owes — the test's own encoder.
func render(name string, cmds []Command) []byte {
	for i := range cmds {
		if err := cmds[i].Err; err != nil && name != "MGET" {
			return respErr(err.Error())
		}
	}
	c := &cmds[0]
	switch name {
	case "SET", "MSET":
		return []byte("+OK\r\n")
	case "GET":
		return respBulk(c.Val, c.Ok)
	case "MGET":
		out := []byte("*" + strconv.Itoa(len(cmds)) + "\r\n")
		for i := range cmds {
			out = append(out, respBulk(cmds[i].Val, cmds[i].Ok && cmds[i].Err == nil)...)
		}
		return out
	case "EXISTS", "EXPIRE", "PERSIST":
		return respBool(c.Ok)
	case "TTL":
		switch {
		case !c.Ok:
			return respInt(-2)
		case c.N < 0:
			return respInt(-1)
		}
		return respInt((c.N + int64(time.Second) - 1) / int64(time.Second))
	}
	sum := int64(0)
	for i := range cmds {
		sum += cmds[i].N
	}
	return respInt(sum)
}

// modelRun is one (entry point, shard count) run of the script.
type modelRun struct {
	t      *testing.T
	st     *Store
	m      *model // m.now is the store's injected clock too
	script []step
}

func newModelRun(t *testing.T, shards int, script []step) *modelRun {
	r := &modelRun{t: t, script: script}
	r.m = &model{data: map[string][]byte{}, dl: map[string]time.Time{}, now: time.Unix(5000, 0)}
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	r.st = New(sma, WithShards(shards), WithClock(func() time.Time { return r.m.now }))
	t.Cleanup(r.st.Close)
	return r
}

// segments walks the script, handing each run of consecutive commands to
// exec together with the replies the model expects (and which steps are
// valid), and applying clock advances and sweeps in between — both to
// the model and the store, with the sweep counts compared.
func (r *modelRun) segments(exec func(cmds [][]string, want [][]byte, valid []bool)) {
	var cmds [][]string
	var want [][]byte
	var valid []bool
	flush := func() {
		if len(cmds) > 0 {
			exec(cmds, want, valid)
		}
		cmds, want, valid = nil, nil, nil
	}
	for _, s := range r.script {
		if s.args != nil {
			reply, ok := r.m.apply(s.args)
			cmds, want, valid = append(cmds, s.args), append(want, reply), append(valid, ok)
			continue
		}
		flush()
		r.m.now = r.m.now.Add(s.advance)
		if s.sweep {
			if got, want := r.st.SweepExpired(), r.m.sweep(); got != want {
				r.t.Fatalf("SweepExpired collected %d keys, model %d", got, want)
			}
		}
	}
	flush()
	// Final contents: every key the script can touch reads as the model
	// says, and nothing else is stored.
	for i := 0; i < 10; i++ {
		k := "k" + strconv.Itoa(i)
		want, _ := r.m.apply([]string{"GET", k})
		v, ok, err := r.st.Get(k)
		if err != nil || !bytes.Equal(respBulk(v, ok), want) {
			r.t.Fatalf("final GET %s = %q (err %v), model %q", k, respBulk(v, ok), err, want)
		}
	}
	if got := r.st.Len(); got != len(r.m.data) {
		r.t.Fatalf("final Len = %d, model holds %d keys", got, len(r.m.data))
	}
}

func TestEveryEntryPointMatchesModel(t *testing.T) {
	script := modelScript(20230613, 900)
	check := func(t *testing.T, args []string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%q replied %q, model %q", args, got, want)
		}
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("direct/shards=%d", shards), func(t *testing.T) {
			r := newModelRun(t, shards, script)
			r.segments(func(cmds [][]string, want [][]byte, valid []bool) {
				for i, args := range cmds {
					if !valid[i] {
						continue
					}
					if isFlush(args) {
						check(t, args, flushAll(r.st), want[i])
						continue
					}
					sl := slots(args)
					for j := range sl {
						direct(r.st, &sl[j])
					}
					check(t, args, render(strings.ToUpper(args[0]), sl), want[i])
				}
			})
		})
		t.Run(fmt.Sprintf("batch/shards=%d", shards), func(t *testing.T) {
			r := newModelRun(t, shards, script)
			b := r.st.NewBatch()
			r.segments(func(cmds [][]string, want [][]byte, valid []bool) {
				// Up to 16 steps share one Exec, so single-key commands run
				// in multi-command shard groups too. A FLUSHALL is not a
				// Batch command: it ends the group before it.
				for lo := 0; lo < len(cmds); {
					if valid[lo] && isFlush(cmds[lo]) {
						check(t, cmds[lo], flushAll(r.st), want[lo])
						lo++
						continue
					}
					hi := lo
					var start []int
					for ; hi < min(lo+16, len(cmds)) && !(valid[hi] && isFlush(cmds[hi])); hi++ {
						start = append(start, b.Len())
						if valid[hi] {
							for _, c := range slots(cmds[hi]) {
								slot := b.Cmd(b.Add(c.Op, c.Key))
								slot.Arg, slot.Delta = c.Arg, c.Delta
							}
						}
					}
					start = append(start, b.Len())
					if err := b.Exec(); err != nil {
						t.Fatal(err)
					}
					for i := lo; i < hi; i++ {
						if valid[i] {
							check(t, cmds[i], render(strings.ToUpper(cmds[i][0]), b.cmds[start[i-lo]:start[i-lo+1]]), want[i])
						}
					}
					b.Reset()
					lo = hi
				}
			})
		})
		for _, depth := range []int{1, 16} {
			t.Run(fmt.Sprintf("resp-depth%d/shards=%d", depth, shards), func(t *testing.T) {
				r := newModelRun(t, shards, script)
				srv := NewServer(r.st, func(string, ...any) {})
				var replies, writes int64
				r.segments(func(cmds [][]string, want [][]byte, _ []bool) {
					raw, w := runScript(t, srv, cmds, depth)
					if all := bytes.Join(want, nil); !bytes.Equal(raw, all) {
						t.Fatalf("reply stream diverges from model:\ngot:   %q\nmodel: %q", raw, all)
					}
					replies += int64(len(cmds))
					writes += w
				})
				// Flush coalescing: a serial client costs a write per reply, a
				// pipelined one far fewer.
				switch coalesced := srv.flushCoalesced.Load(); {
				case depth == 1 && (writes < replies || coalesced != 0):
					t.Fatalf("depth 1 coalesced: %d writes for %d replies, %d deferred flushes", writes, replies, coalesced)
				case depth > 1 && (writes >= replies/4 || coalesced == 0):
					t.Fatalf("depth %d not coalescing: %d writes for %d replies, %d deferred flushes", depth, writes, replies, coalesced)
				}
			})
		}
	}
}

// The reclaiming variant: four clients — direct calls, Batch, RESP at
// depth 1 and at depth 16 — run at once against one store while demands
// revoke pages under them. Each client works its own keys, so every
// key's history is sequential and is replayed against the same model;
// the one extra outcome a reply may show is "revoked ⇒ miss": the key
// reads as absent although the model holds it, from then on it is
// absent until set again, and the store must have reported (OnReclaim)
// at least as many revocations of that key as the replay had to assume.
// Anything else — a stale value, a value that comes back after a miss,
// bytes of another key — matches neither model and fails.

// reclaimScript is one client's seeded script over its own keys:
// single-key commands only, values large enough that a few dozen fill
// pages.
func reclaimScript(client int, n int) [][]string {
	rng := rand.New(rand.NewSource(int64(1600 + client)))
	key := func() string { return fmt.Sprintf("c%d-k%02d", client, rng.Intn(48)) }
	var script [][]string
	for len(script) < n {
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			v := strconv.Itoa(rng.Intn(2000) - 1000) // INCR-able
			if rng.Intn(4) != 0 {
				v = strings.Repeat(string(rune('a'+rng.Intn(26))), 200+rng.Intn(1200))
			}
			script = append(script, []string{"SET", key(), v})
		case 4, 5, 6, 7:
			script = append(script, []string{"GET", key()})
		case 8:
			script = append(script, []string{"DEL", key()})
		case 9:
			script = append(script, []string{"INCRBY", key(), strconv.Itoa(rng.Intn(9) + 1)})
		case 10:
			script = append(script, []string{"APPEND", key(), strings.Repeat("+", 1+rng.Intn(40))})
		default:
			script = append(script, []string{[]string{"STRLEN", "EXISTS"}[rng.Intn(2)], key()})
		}
	}
	return script
}

// respReplies sends cmds over one connection, depth at a time, and
// returns each command's raw reply (the scripts produce no arrays),
// calling replied with the size of each group whose replies are in.
func respReplies(srv *Server, cmds [][]string, depth int, replied func(n int)) ([][]byte, error) {
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(serverEnd)
	}()
	defer func() {
		clientEnd.Close()
		<-done
	}()
	rd := bufio.NewReader(clientEnd)
	replies := make([][]byte, 0, len(cmds))
	for lo := 0; lo < len(cmds); lo += depth {
		hi := min(lo+depth, len(cmds))
		var req []byte
		for _, c := range cmds[lo:hi] {
			req = appendCommand(req, c...)
		}
		werr := make(chan error, 1)
		go func() { _, err := clientEnd.Write(req); werr <- err }()
		for range hi - lo {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				return nil, err
			}
			if n, isLen := modelInt(string(line[1 : len(line)-2])); line[0] == '$' && isLen && n >= 0 {
				line = append(line, make([]byte, n+2)...)
				if _, err := io.ReadFull(rd, line[len(line)-int(n)-2:]); err != nil {
					return nil, err
				}
			}
			replies = append(replies, line)
		}
		if err := <-werr; err != nil {
			return nil, err
		}
		replied(hi - lo)
	}
	return replies, nil
}

func TestEveryEntryPointUnderReclaim(t *testing.T) {
	const steps = 2500
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			revocations := map[string]int{}
			sma := core.New(core.Config{Machine: pages.NewPool(0)})
			st := New(sma, WithShards(shards), WithOnReclaim(func(key string) {
				mu.Lock()
				revocations[key]++
				mu.Unlock()
			}))
			defer st.Close()
			srv := NewServer(st, func(string, ...any) {})

			// A demand fires every demandEvery client steps, counted across
			// the four clients as they complete, so how many demands the run
			// sees depends on the scripts and not on the scheduler.
			const clientCount, demandEvery = 4, 40
			var completed atomic.Int64
			ticks := make(chan int64, clientCount*steps/demandEvery)
			done := func(n int) {
				after := completed.Add(int64(n))
				for k := (after-int64(n))/demandEvery + 1; k <= after/demandEvery; k++ {
					ticks <- k
				}
			}
			clients := [clientCount]struct {
				name string
				run  func(cmds [][]string) ([][]byte, error)
			}{
				{"direct", func(cmds [][]string) ([][]byte, error) {
					var out [][]byte
					for _, args := range cmds {
						sl := slots(args)
						direct(st, &sl[0])
						out = append(out, render(args[0], sl))
						done(1)
					}
					return out, nil
				}},
				{"batch", func(cmds [][]string) ([][]byte, error) {
					var out [][]byte
					b := st.NewBatch()
					for lo := 0; lo < len(cmds); lo += 16 {
						hi := min(lo+16, len(cmds))
						for _, args := range cmds[lo:hi] {
							c := slots(args)[0]
							slot := b.Cmd(b.Add(c.Op, c.Key))
							slot.Arg, slot.Delta = c.Arg, c.Delta
						}
						if err := b.Exec(); err != nil {
							return nil, err
						}
						for i, args := range cmds[lo:hi] {
							reply := render(args[0], b.cmds[i:i+1])
							out = append(out, append([]byte(nil), reply...))
						}
						b.Reset()
						done(hi - lo)
					}
					return out, nil
				}},
				{"resp-depth1", func(cmds [][]string) ([][]byte, error) { return respReplies(srv, cmds, 1, done) }},
				{"resp-depth16", func(cmds [][]string) ([][]byte, error) { return respReplies(srv, cmds, 16, done) }},
			}

			demands := make(chan struct{})
			go func() {
				defer close(demands)
				for k := range ticks {
					sma.HandleDemand(1 + int(k%3))
				}
			}()
			scripts := make([][][]string, len(clients))
			replies := make([][][]byte, len(clients))
			var wg sync.WaitGroup
			for i, c := range clients {
				scripts[i] = reclaimScript(i, steps)
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if replies[i], err = c.run(scripts[i]); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
				}()
			}
			wg.Wait()
			close(ticks)
			<-demands
			if t.Failed() {
				return
			}

			assumed, hits := 0, 0
			for i, c := range clients {
				m := &model{data: map[string][]byte{}, dl: map[string]time.Time{}}
				adopted := map[string]int{}
				// replay applies args and returns the reply the model owes,
				// or, if got differs from it, the reply it owes once the
				// key's value has been revoked.
				replay := func(args []string, got []byte) []byte {
					_, had := m.data[args[1]]
					want, _ := m.apply(args)
					if bytes.Equal(got, want) || !had {
						return want
					}
					delete(m.data, args[1])
					adopted[args[1]]++
					want, _ = m.apply(args)
					return want
				}
				for j, args := range scripts[i] {
					got := replies[i][j]
					if want := replay(args, got); !bytes.Equal(got, want) {
						t.Fatalf("%s step %d: %q replied %.60q, legal neither for the model nor for the model with the key revoked (%.60q)", c.name, j, args[:2], got, want)
					}
					if args[0] == "GET" && got[1] != '-' {
						hits++
					}
				}
				// What is left reads as the model says, or is revoked.
				for k := 0; k < 48; k++ {
					args := []string{"GET", fmt.Sprintf("c%d-k%02d", i, k)}
					v, ok, err := st.Get(args[1])
					if got := respBulk(v, ok); err != nil || !bytes.Equal(got, replay(args, got)) {
						t.Fatalf("%s: final GET %s = %.60q (err %v), legal neither way", c.name, args[1], got, err)
					}
				}
				for key, n := range adopted {
					if n > revocations[key] {
						t.Fatalf("%s: key %s read as revoked %d times, the store reported %d revocations", c.name, key, n, revocations[key])
					}
					assumed += n
				}
			}
			if assumed == 0 || hits == 0 {
				t.Fatalf("the run observed %d revocations and %d GET hits; it must see both to mean anything", assumed, hits)
			}
			t.Logf("%d revocations seen by the clients, %d GET hits", assumed, hits)
			if err := sma.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
