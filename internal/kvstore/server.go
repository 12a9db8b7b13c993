package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"softmem/internal/pages"
)

// connBufSize sizes each connection's read and write buffers. Large
// enough that a deep pipeline batch usually fits in one read and its
// replies coalesce into one write.
const connBufSize = 16 << 10

// Server exposes a Store over the RESP protocol. Mutations serialize
// inside the Store (the paper's Redis is single-threaded); the server
// accepts many connections.
type Server struct {
	store *Store
	logf  func(string, ...any)
	// met holds the per-command latency instruments once RegisterMetrics
	// has run; nil skips timing.
	met atomic.Pointer[cmdMetrics]
	// flushCoalesced counts replies whose flush was deferred because more
	// pipelined input was already buffered — each is a write syscall the
	// coalescing policy saved.
	flushCoalesced atomic.Int64
	// cluster, when set, is asked about every command's keys (MOVED
	// redirects), serves the hooked rows and observes local writes for
	// replication. Nil in single-node deployments.
	cluster atomic.Pointer[ClusterHook]

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
}

// NewServer wraps store; logf (nil = log.Printf) receives connection
// diagnostics.
func NewServer(store *Store, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	return &Server{store: store, logf: logf, conns: make(map[net.Conn]struct{})}
}

// Listen binds network/addr and returns the bound address.
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections until Close.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("kvstore: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server and closes live connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// serveConn runs one connection's read-route-reply loop. Keyed string
// commands are never executed here: the reader parses RESP, routes each
// command through the command table into a per-connection Batch
// (multi-key MGET/MSET/DEL split per shard), and settles the batch —
// execute, write the rejoined replies in command order — only when the
// pipeline runs dry or the batch fills. A serial client is the same
// path with a pipeline of one: enqueue one command, settle at once (a
// one-command Batch.Exec is Store.Do, so no ring hop and no goroutine
// handoff). Everything else (PING, INFO, KEYS, hash/list ops, ...)
// settles first, then runs inline, so per-connection reply order is
// always the request order.
//
// Flushes stay coalesced: the reply buffer goes out when no further
// pipelined input is already buffered, so a burst of N pipelined
// commands costs one batch settle and one write syscall.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	cr := newCmdReader(bufio.NewReaderSize(nc, connBufSize))
	rw := newRespWriter(bufio.NewWriterSize(nc, connBufSize))
	ce := s.newConnExec()
	for {
		args, err := cr.ReadCommand()
		if err != nil {
			return // EOF or protocol failure: drop the connection
		}
		if len(args) == 0 {
			continue
		}
		quit := ce.serve(rw, canonicalCommand(args[0]), args)
		if quit || cr.buffered() == 0 {
			ce.settle(rw)
			if err := rw.flush(); err != nil {
				return
			}
			if quit {
				return
			}
		} else {
			if ce.full() {
				ce.settle(rw)
			}
			s.flushCoalesced.Add(1)
		}
	}
}

// Batch-settle thresholds: a batch settles early once it holds this
// many commands or its value arena grows past this many bytes, bounding
// per-connection memory under an adversarially deep pipeline.
const (
	maxBatchCommands = 256
	maxBatchArena    = 1 << 20
)

// Reply kinds: how one RESP command's reply is rebuilt from its slice
// of batch command slots.
const (
	rkOK   uint8 = iota // +OK when every slot succeeded (SET, MSET)
	rkBulk              // nil or bulk value (GET)
	rkInt               // sum of N over the slots (INCR family, APPEND, STRLEN; DEL's removals)
	rkBool              // :0/:1 from Ok (EXISTS, EXPIRE, PERSIST)
	rkTTL               // Redis TTL semantics from Ok/N
	rkMGet              // array of bulks over the slots (MGET)
	rkErr               // pre-formed parse/arity error, no slots
)

// Key layouts: where a command's keys sit in its arguments. The server
// asks an installed ClusterHook about each of them before the command
// runs, and the slowlog records the first.
const (
	keysNone  uint8 = iota // keyless: served on whichever node the client reached
	keysFirst              // args[1]
	keysAll                // args[1:]
	keysPairs              // args[1], args[3], ... of key value pairs
)

// commandSpec is the one description of a RESP command: its name, its
// arity, where its keys sit, and how it runs. The server checks every
// row's arity, and asks a cluster hook about every row's keys, before
// the command runs. A keyed string command (op != 0) runs in the
// connection's batch and is described completely — the Op its batch
// slots carry, how its arguments decode into slots, the reply rebuilt
// from them — so routing (enqueue), replying (writeReply), the cmd
// metric label set and the pprof op names all read this one table, and
// serial and pipelined serving cannot drift apart. Any other command
// runs inline through run, or, when hooked, through the installed
// ClusterHook.
type commandSpec struct {
	name string
	// arity is the exact len(args), or when negative the minimum; then
	// maxArgs, when set, is the most. A keysPairs row's pairs must also
	// be whole.
	arity   int
	maxArgs int
	keys    uint8
	op      Op
	// decode queues the command's slots on ce.batch. It validates before
	// it queues: a non-empty error message means nothing was queued.
	decode func(ce *connExec, sp *commandSpec, args [][]byte) (errMsg string)
	reply  uint8
	// sign is the INCR family's delta sign (the whole delta for INCR/DECR).
	sign int64
	// run serves an inline command, writing its one reply.
	run func(s *Server, rw *respWriter, args [][]byte)
	// hooked rows are served by the installed ClusterHook; without one
	// they are unknown commands.
	hooked   bool
	arityMsg string // default "wrong number of arguments for '<name>'"
}

// shortArity is the arity message of the INCR family and the list
// push/pop commands.
const shortArity = "wrong number of arguments"

// commandList is the command table's source. Where several commands
// share an Op, the first names it in pprof labels.
var commandList = []commandSpec{
	{name: "GET", op: OpGet, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkBulk},
	{name: "SET", op: OpSet, arity: 3, keys: keysFirst, decode: decodeValue, reply: rkOK},
	{name: "DEL", op: OpDel, arity: -2, keys: keysAll, decode: decodeKeys, reply: rkInt},
	{name: "INCR", op: OpIncr, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkInt, sign: 1, arityMsg: shortArity},
	{name: "DECR", op: OpIncr, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkInt, sign: -1, arityMsg: shortArity},
	{name: "INCRBY", op: OpIncr, arity: 3, keys: keysFirst, decode: decodeDelta, reply: rkInt, sign: 1, arityMsg: shortArity},
	{name: "DECRBY", op: OpIncr, arity: 3, keys: keysFirst, decode: decodeDelta, reply: rkInt, sign: -1, arityMsg: shortArity},
	{name: "APPEND", op: OpAppend, arity: 3, keys: keysFirst, decode: decodeValue, reply: rkInt},
	{name: "STRLEN", op: OpStrLen, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkInt},
	{name: "EXISTS", op: OpExists, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkBool},
	{name: "EXPIRE", op: OpExpire, arity: 3, keys: keysFirst, decode: decodeSeconds, reply: rkBool},
	{name: "TTL", op: OpTTL, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkTTL},
	{name: "PERSIST", op: OpPersist, arity: 2, keys: keysFirst, decode: decodeKey, reply: rkBool},
	{name: "MGET", op: OpGet, arity: -2, keys: keysAll, decode: decodeKeys, reply: rkMGet},
	{name: "MSET", op: OpSet, arity: -3, keys: keysPairs, decode: decodePairs, reply: rkOK},

	{name: "PING", arity: -1, run: func(_ *Server, rw *respWriter, _ [][]byte) { rw.simple("PONG") }},
	// QUIT's reply is the connection's last (serve closes it).
	{name: "QUIT", arity: -1, run: func(_ *Server, rw *respWriter, _ [][]byte) { rw.simple("OK") }},
	{name: "KEYS", arity: 2, run: runKeys},
	{name: "DBSIZE", arity: -1, run: func(s *Server, rw *respWriter, _ [][]byte) { rw.integer(int64(s.store.Len())) }},
	{name: "FLUSHALL", arity: -1, run: func(s *Server, rw *respWriter, _ [][]byte) {
		if err := s.store.FlushAll(); err != nil {
			rw.error(err.Error())
			return
		}
		rw.simple("OK")
	}},
	{name: "INFO", arity: -1, run: runInfo},

	{name: "LPUSH", arity: -3, keys: keysFirst, arityMsg: shortArity, run: push((*Store).LPush)},
	{name: "RPUSH", arity: -3, keys: keysFirst, arityMsg: shortArity, run: push((*Store).RPush)},
	{name: "LPOP", arity: 2, keys: keysFirst, arityMsg: shortArity, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.value(s.store.LPop(string(args[1])))
	}},
	{name: "RPOP", arity: 2, keys: keysFirst, arityMsg: shortArity, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.value(s.store.RPop(string(args[1])))
	}},
	{name: "LLEN", arity: 2, keys: keysFirst, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.integer(int64(s.store.LLen(string(args[1]))))
	}},
	{name: "LRANGE", arity: 4, keys: keysFirst, run: runLRange},
	{name: "HSET", arity: 4, keys: keysFirst, run: func(s *Server, rw *respWriter, args [][]byte) {
		created, err := s.store.HSet(string(args[1]), string(args[2]), args[3])
		if err != nil {
			cmdError(rw, err, true)
			return
		}
		rw.boolean(created)
	}},
	{name: "HGET", arity: 3, keys: keysFirst, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.value(s.store.HGet(string(args[1]), string(args[2])))
	}},
	{name: "HDEL", arity: -3, keys: keysFirst, run: runHDel},
	{name: "HLEN", arity: 2, keys: keysFirst, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.integer(int64(s.store.HLen(string(args[1]))))
	}},
	{name: "HEXISTS", arity: 3, keys: keysFirst, run: func(s *Server, rw *respWriter, args [][]byte) {
		rw.boolean(s.store.HExists(string(args[1]), string(args[2])))
	}},
	{name: "HGETALL", arity: 2, keys: keysFirst, run: runHGetAll},

	// Cluster-mode commands. RSET and RDEL are replica applies the slot's
	// owner sent here, so their keys are never redirected.
	{name: "CLUSTER", arity: -1, hooked: true},
	{name: "RSET", arity: -3, maxArgs: 4, hooked: true},
	{name: "RDEL", arity: -2, maxArgs: 3, hooked: true},
	{name: "WAIT", arity: -1, hooked: true},
}

// commandTable indexes commandList by canonical name; opNames names each
// Op for pprof labels. Both are filled once, here.
var (
	commandTable = make(map[string]*commandSpec, len(commandList))
	opNames      = [opSweep + 1]string{opSweep: "SWEEP"}
)

func init() {
	for i := range commandList {
		sp := &commandList[i]
		if sp.arityMsg == "" {
			sp.arityMsg = "wrong number of arguments for '" + strings.ToLower(sp.name) + "'"
		}
		if sp.op != 0 && opNames[sp.op] == "" {
			opNames[sp.op] = sp.name
		}
		commandTable[sp.name] = sp
	}
}

// unknownCommand stands in for names the table does not hold, and for
// hooked rows while no hook is installed: no name (metrics label it
// OTHER), no keys, any arity.
var unknownCommand = commandSpec{arity: -1, run: func(_ *Server, rw *respWriter, args [][]byte) {
	rw.error(fmt.Sprintf("unknown command '%s'", args[0]))
}}

// canonicalCommand resolves args[0], case-insensitively, to its table
// entry (unknownCommand when absent) without mutating the argument or
// allocating: the m[string(b)] lookup compiles without a copy. This is
// the only map probe a command pays.
func canonicalCommand(name []byte) *commandSpec {
	var up [32]byte // longer than every known command
	if len(name) > len(up) {
		return &unknownCommand
	}
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	if sp := commandTable[string(up[:len(name)])]; sp != nil {
		return sp
	}
	return &unknownCommand
}

// The argument decoders. Keys and values are copied into the
// connection's arena, because a batch outlives the read of the next
// pipelined command; a key reaches its slot as a string aliasing the
// arena (copyKey), so queueing a command allocates nothing.

// decodeKey: <cmd> key.
func decodeKey(ce *connExec, sp *commandSpec, args [][]byte) string {
	b := ce.batch
	b.Cmd(b.Add(sp.op, ce.copyKey(args[1]))).Delta = sp.sign
	return ""
}

// decodeValue: <cmd> key value.
func decodeValue(ce *connExec, sp *commandSpec, args [][]byte) string {
	b := ce.batch
	b.Cmd(b.Add(sp.op, ce.copyKey(args[1]))).Arg = ce.copyVal(args[2])
	return ""
}

// decodeDelta: <cmd> key integer.
func decodeDelta(ce *connExec, sp *commandSpec, args [][]byte) string {
	n, ok := asciiInt(args[2])
	if !ok {
		return "value is not an integer or out of range"
	}
	b := ce.batch
	b.Cmd(b.Add(sp.op, ce.copyKey(args[1]))).Delta = sp.sign * int64(n)
	return ""
}

// decodeSeconds: <cmd> key seconds.
func decodeSeconds(ce *connExec, sp *commandSpec, args [][]byte) string {
	secs, ok := asciiInt(args[2])
	if !ok || secs < 0 {
		return "invalid expire time"
	}
	b := ce.batch
	b.Cmd(b.Add(sp.op, ce.copyKey(args[1]))).Delta = int64(secs) * int64(time.Second)
	return ""
}

// decodeKeys: <cmd> key [key ...], one slot per key.
func decodeKeys(ce *connExec, sp *commandSpec, args [][]byte) string {
	for _, k := range args[1:] {
		ce.batch.Add(sp.op, ce.copyKey(k))
	}
	return ""
}

// decodePairs: <cmd> key value [key value ...], one slot per pair.
func decodePairs(ce *connExec, sp *commandSpec, args [][]byte) string {
	if len(args)%2 != 1 {
		return sp.arityMsg
	}
	b := ce.batch
	for i := 1; i < len(args); i += 2 {
		b.Cmd(b.Add(sp.op, ce.copyKey(args[i]))).Arg = ce.copyVal(args[i+1])
	}
	return ""
}

// replySpec maps one pipelined RESP command onto the batch: the command
// slots [start, start+n) and the reply shape to rebuild from them.
type replySpec struct {
	kind   uint8
	cmd    string // canonical name, for per-command latency metrics
	errMsg string // rkErr only
	start  int32
	n      int32
}

// connExec is one connection's routing state: the reusable Batch, the
// reply specs rejoining batch results into RESP replies in request
// order, and the arena that copies keys and SET values out of the
// cmdReader's reused argument buffers (a batch outlives the read of the
// next pipelined command, so neither can alias the parser's scratch).
// All three recycle their capacity across settles, so a steady
// pipelined workload allocates nothing.
type connExec struct {
	s     *Server
	batch *Batch
	specs []replySpec
	arena []byte
	// The connection's ClusterHook session, minted lazily and re-minted
	// if SetCluster swaps the hook mid-connection (sessHook is the hook
	// the session belongs to).
	sessHook ClusterHook
	sess     ClusterSession
}

// newConnExec returns one connection's routing state.
func (s *Server) newConnExec() *connExec {
	return &connExec{s: s, batch: s.store.NewBatch()}
}

// session returns the connection's session for h, minting it on first
// use.
func (ce *connExec) session(h ClusterHook) ClusterSession {
	if ce.sess == nil || ce.sessHook != h {
		ce.sess = h.NewSession()
		ce.sessHook = h
	}
	return ce.sess
}

// copyVal copies a parser-owned value into the arena, returning a slice
// that stays valid until the next settle.
func (ce *connExec) copyVal(v []byte) []byte {
	off := len(ce.arena)
	ce.arena = append(ce.arena, v...)
	return ce.arena[off:len(ce.arena):len(ce.arena)]
}

// copyKey copies a parser-owned key into the arena and returns a string
// aliasing the copy, valid until the next settle. It is the module's
// one non-test use of unsafe: the string is only as immutable as the
// arena, so everything that keeps a key past its command copies it (see
// Command.Key), and settle clears the used arena before reusing it, so
// a key kept by mistake stops reading as that key.
func (ce *connExec) copyKey(k []byte) string {
	b := ce.copyVal(k)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// full reports whether the batch should settle before more input.
func (ce *connExec) full() bool {
	return ce.batch.Len() >= maxBatchCommands || len(ce.arena) >= maxBatchArena
}

// serve routes one parsed command and reports whether the connection
// should close. A command with the wrong arity is answered in its place
// in the batch. Otherwise a hooked command, a redirect (a key the
// cluster hook says another node owns) and an inline command all settle
// the queued work first, so per-connection reply order is preserved.
// The argument slices are owned by the caller's cmdReader and are only
// valid for the duration of the call.
func (ce *connExec) serve(rw *respWriter, sp *commandSpec, args [][]byte) (quit bool) {
	h := ce.s.hook()
	if sp.hooked && h == nil {
		sp = &unknownCommand
	}
	if !sp.arityOK(len(args)) {
		ce.specs = append(ce.specs, replySpec{kind: rkErr, cmd: sp.name, errMsg: sp.arityMsg, start: int32(ce.batch.Len())})
		return false
	}
	if h != nil {
		if sp.hooked {
			ce.settle(rw)
			h.Handle(ce.session(h), sp.name, args, rw)
			return false
		}
		if reply := sp.redirect(h, args); reply != "" {
			ce.settle(rw)
			rw.WriteError(reply)
			return false
		}
	}
	if sp.op != 0 {
		ce.enqueue(sp, args)
		return false
	}
	ce.settle(rw)
	ce.s.inline(rw, sp, args)
	return sp.name == "QUIT"
}

// arityOK reports whether a call of n arguments, the name included, fits
// the row.
func (sp *commandSpec) arityOK(n int) bool {
	switch {
	case sp.arity >= 0:
		return n == sp.arity
	case n < -sp.arity, sp.maxArgs > 0 && n > sp.maxArgs:
		return false
	}
	return sp.keys != keysPairs || n%2 == 1
}

// crossSlot answers a command whose keys have more than one owner: no
// node holds them all, so none runs it. redirect asks the hook about
// each key in turn, so a ring replaced between two of those calls can
// split keys that one owner holds in either ring version; the command
// then gets crossSlot, which clients treat as final, where a -MOVED
// would have been retried.
const crossSlot = "CROSSSLOT Keys in request don't hash to the same slot"

// redirect asks h about every one of the command's keys. It returns ""
// when this node owns them all, the first key's MOVED reply when one
// other node owns them all, and crossSlot when they have more than one
// owner.
func (sp *commandSpec) redirect(h ClusterHook, args [][]byte) (reply string) {
	step, end := 1, len(args)
	switch sp.keys {
	case keysNone:
		return ""
	case keysFirst:
		end = 2
	case keysPairs:
		step = 2
	}
	first := h.Redirect(args[1])
	for i := 1 + step; i < end; i += step {
		if movedOwner(h.Redirect(args[i])) != movedOwner(first) {
			return crossSlot
		}
	}
	if first != "" {
		h.Moved()
	}
	return first
}

// movedOwner is the address a MOVED reply names, "" for no reply.
func movedOwner(moved string) string {
	return moved[strings.LastIndexByte(moved, ' ')+1:]
}

// firstKey is the command's first key, nil for a keyless row.
func (sp *commandSpec) firstKey(args [][]byte) []byte {
	if sp.keys == keysNone {
		return nil
	}
	return args[1]
}

// enqueue queues one keyed string command's slots on the batch. An
// argument error is recorded as a pre-formed error spec, so it holds its
// place in the reply order without touching the engine.
func (ce *connExec) enqueue(sp *commandSpec, args [][]byte) {
	rs := replySpec{kind: sp.reply, cmd: sp.name, start: int32(ce.batch.Len())}
	if msg := sp.decode(ce, sp, args); msg != "" {
		rs.kind, rs.errMsg = rkErr, msg
	}
	rs.n = int32(ce.batch.Len()) - rs.start
	ce.specs = append(ce.specs, rs)
}

// settle executes the queued batch against the shard owners and writes
// the rejoined replies in request order, then resets for reuse.
func (ce *connExec) settle(rw *respWriter) {
	if len(ce.specs) == 0 {
		return
	}
	m := ce.s.met.Load()
	a := ce.s.store.attrib.Load()
	var t0 time.Time
	if m != nil || a != nil {
		t0 = time.Now()
	}
	_ = ce.batch.Exec()
	if h := ce.s.hook(); h != nil {
		onApplyBatch(h, ce.session(h), ce.batch.cmds)
	}
	if m != nil || a != nil {
		// The settle's wall time is shared evenly across its commands —
		// the per-command service time a pipelining client experiences.
		per := time.Since(t0) / time.Duration(len(ce.specs))
		for i := range ce.specs {
			if m != nil {
				m.observe(ce.specs[i].cmd, per)
			}
			if a != nil {
				ce.recordSlow(a, &ce.specs[i])
			}
		}
	}
	for i := range ce.specs {
		ce.writeReply(rw, &ce.specs[i])
	}
	ce.specs = ce.specs[:0]
	ce.batch.Reset()
	// Exec returned only after every shard group ran, owner-ring groups
	// included, so no executor still reads a key that aliases the arena.
	clear(ce.arena)
	ce.arena = ce.arena[:0]
}

// recordSlow feeds one settled RESP command into the slow-request log
// when it crossed the threshold. The breakdown is the slowest of the
// command's batch slots (an MGET's worst constituent — request latency
// tracks the slowest shard, the others overlap it). Every executed slot
// carries a span, whichever entry point ran it; slots that never
// executed (error specs, shed commands) have none and record nothing.
func (ce *connExec) recordSlow(a *attribState, sp *replySpec) {
	cmds := ce.batch.cmds
	var best *Command
	var bestTotal int64
	for i := sp.start; i < sp.start+sp.n; i++ {
		c := &cmds[i]
		t := int64(0)
		for p := 0; p < numCmdPhases; p++ {
			t += c.phaseNs[p]
		}
		if t > bestTotal {
			bestTotal, best = t, c
		}
	}
	if best == nil || bestTotal < a.slow.thresholdNs {
		return
	}
	// The log outlives the settle, and the key aliases the arena.
	e := SlowEntry{Cmd: sp.cmd, Key: strings.Clone(best.Key), TotalNs: bestTotal}
	for i, ns := range best.phaseNs {
		*e.phase(i) = ns
	}
	a.slow.record(e)
}

// cmdError maps a command failure to its RESP reply: ErrOverloaded
// becomes -BUSY (shed load, retry), everything else an -ERR with the
// error's text (a failed write says what it ran out of).
func cmdError(rw *respWriter, err error, isSet bool) {
	if err == ErrOverloaded {
		rw.busy()
		return
	}
	if isSet {
		rw.error("soft memory exhausted: " + err.Error())
		return
	}
	rw.error(err.Error())
}

// writeReply rebuilds one RESP command's reply from its batch slots.
func (ce *connExec) writeReply(rw *respWriter, sp *replySpec) {
	cmds := ce.batch.cmds[sp.start : sp.start+sp.n]
	if sp.kind != rkMGet {
		// The first failed slot is the reply (an error spec has no slots).
		for i := range cmds {
			if err := cmds[i].Err; err != nil {
				cmdError(rw, err, sp.kind == rkOK)
				return
			}
		}
	}
	switch sp.kind {
	case rkErr:
		rw.error(sp.errMsg)
	case rkOK:
		rw.simple("OK")
	case rkInt:
		n := int64(0)
		for i := range cmds {
			n += cmds[i].N
		}
		rw.integer(n)
	case rkBulk:
		rw.value(cmds[0].Val, cmds[0].Ok, nil)
	case rkBool:
		rw.boolean(cmds[0].Ok)
	case rkTTL:
		switch c := &cmds[0]; {
		case !c.Ok:
			rw.integer(-2)
		case c.N < 0:
			rw.integer(-1)
		default:
			// Round up, as Redis does: a fresh EXPIRE k 100 reports 100.
			rw.integer((c.N + int64(time.Second) - 1) / int64(time.Second))
		}
	case rkMGet:
		// A shed sub-command fails the whole MGET as -BUSY (an array
		// with silently-absent values would be indistinguishable from
		// misses); other per-key errors degrade to nil.
		for i := range cmds {
			if cmds[i].Err == ErrOverloaded {
				rw.busy()
				return
			}
		}
		rw.arrayHeader(len(cmds))
		for i := range cmds {
			if c := &cmds[i]; c.Err != nil || !c.Ok {
				rw.nilReply()
			} else {
				rw.bulk(c.Val)
			}
		}
	}
}

// inline runs one command through its row's handler. With metrics or
// attribution armed it is timed; its whole wall time is exec.
func (s *Server) inline(rw *respWriter, sp *commandSpec, args [][]byte) {
	m := s.met.Load()
	a := s.store.attrib.Load()
	if m == nil && a == nil {
		sp.run(s, rw, args)
		return
	}
	t0 := time.Now()
	sp.run(s, rw, args)
	d := time.Since(t0)
	if m != nil {
		m.observe(sp.name, d)
	}
	if a != nil {
		a.observeInline(sp, args, d)
	}
}

// push serves LPUSH or RPUSH through the Store method f.
func push(f func(*Store, string, ...[]byte) (int, error)) func(*Server, *respWriter, [][]byte) {
	return func(s *Server, rw *respWriter, args [][]byte) {
		n, err := f(s.store, string(args[1]), args[2:]...)
		if err != nil {
			cmdError(rw, err, true)
			return
		}
		rw.integer(int64(n))
	}
}

func runLRange(s *Server, rw *respWriter, args [][]byte) {
	start, ok1 := asciiInt(args[2])
	stop, ok2 := asciiInt(args[3])
	if !ok1 || !ok2 {
		rw.error("value is not an integer or out of range")
		return
	}
	vals, err := s.store.LRange(string(args[1]), start, stop)
	if err != nil {
		rw.error(err.Error())
		return
	}
	rw.arrayHeader(len(vals))
	for _, v := range vals {
		rw.bulk(v)
	}
}

func runHDel(s *Server, rw *respWriter, args [][]byte) {
	fields := make([]string, 0, len(args)-2)
	for _, f := range args[2:] {
		fields = append(fields, string(f))
	}
	n, err := s.store.HDel(string(args[1]), fields...)
	if err != nil {
		rw.error(err.Error())
		return
	}
	rw.integer(int64(n))
}

func runHGetAll(s *Server, rw *respWriter, args [][]byte) {
	all, err := s.store.HGetAll(string(args[1]))
	if err != nil {
		rw.error(err.Error())
		return
	}
	fields := make([]string, 0, len(all))
	for f := range all {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	rw.arrayHeader(2 * len(fields))
	for _, f := range fields {
		rw.bulkString(f)
		rw.bulk(all[f])
	}
}

func runKeys(s *Server, rw *respWriter, args [][]byte) {
	keys, err := s.store.Keys(string(args[1]))
	if err != nil {
		rw.error(err.Error())
		return
	}
	rw.arrayHeader(len(keys))
	for _, k := range keys {
		rw.bulkString(k)
	}
}

func runInfo(s *Server, rw *respWriter, _ [][]byte) {
	st := s.store.Stats()
	hs := st.Soft
	// Totals are store-global aggregates over every shard; the
	// per-shard breakdown follows so operators can see skew.
	info := fmt.Sprintf(
		"entries:%d\r\nshards:%d\r\nsets:%d\r\ngets:%d\r\nhits:%d\r\nmisses:%d\r\nreclaimed:%d\r\nexpired:%d\r\nsoft_bytes:%d\r\nsoft_slot_bytes:%d\r\nsoft_pages:%d\r\nsoft_free_pages:%d\r\ntotal_allocs:%d\r\ntotal_frees:%d\r\nflush_coalesced:%d\r\n",
		st.Entries, st.Shards, st.Sets, st.Gets, st.Hits, st.Misses, st.Reclaimed, st.Expired,
		hs.LiveBytes, hs.SlotBytes, hs.PagesHeld, hs.FreePages, hs.TotalAllocs, hs.TotalFrees,
		s.flushCoalesced.Load())
	if st.Spill != nil {
		info += fmt.Sprintf(
			"promotions:%d\r\nspilled_entries:%d\r\nspilled_bytes:%d\r\nspill_demotions:%d\r\nspill_hits:%d\r\nspill_misses:%d\r\nspill_compactions:%d\r\n",
			st.Promotions, st.SpilledEntries, st.SpilledBytes,
			st.Spill.Demotions, st.Spill.Hits, st.Spill.Misses, st.Spill.Compactions)
	}
	for i, sh := range st.PerShard {
		info += fmt.Sprintf("shard%d_entries:%d\r\nshard%d_reclaimed:%d\r\nshard%d_soft_bytes:%d\r\n",
			i, sh.Entries, i, sh.Reclaimed, i, sh.Heap.LiveBytes)
	}
	rw.bulkString(info)
}

// PageSize re-exports the page size for INFO consumers.
const PageSize = pages.Size
