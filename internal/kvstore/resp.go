package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The store speaks a subset of RESP (the Redis serialization protocol):
// array-of-bulk-strings requests plus inline commands, and simple-string,
// error, integer, bulk, and nil replies. Enough for redis-cli-style
// interaction and for the experiments.
//
// The parse and reply paths are allocation-free in steady state: each
// connection owns a cmdReader (reusable argument buffers), a replyReader
// (reusable bulk scratch), and a respWriter (reusable numeric scratch),
// so a pipelined client costs no heap traffic per command beyond what
// the store itself does.

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("kvstore: protocol error")

// ReplyError is an error reply sent by the server ("-ERR ..."), as
// opposed to a transport or protocol failure. Pipelines deliver it
// per-command and keep reading; everything else aborts the connection.
type ReplyError string

// Error implements error.
func (e ReplyError) Error() string { return string(e) }

// maxBulk bounds a single argument; larger input indicates a broken or
// hostile client.
const maxBulk = 8 << 20

// maxLine bounds a single protocol line (array/bulk headers and inline
// commands, terminator included). Bulk *bodies* are bounded by maxBulk;
// without this cap a hostile client streaming bytes that never contain
// a newline would grow the line buffer without bound.
const maxLine = 64 << 10

// maxArgs bounds a request's arity.
const maxArgs = 1024

// errLineTooLong is the capped readLine's failure, wrapped as a
// protocol error so callers drop the connection.
var errLineTooLong = fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, maxLine)

// lineReader reads CRLF- (or bare LF-) terminated lines of bounded
// length without allocating: the fast path returns a slice into the
// bufio buffer, and lines that straddle a buffer boundary accumulate in
// a reusable spill buffer.
type lineReader struct {
	r    *bufio.Reader
	line []byte // spill scratch, reused across reads
}

// readLine returns one line without its terminator. The returned slice
// aliases either the bufio buffer or the reader's scratch and is valid
// only until the next read.
func (lr *lineReader) readLine() ([]byte, error) {
	b, err := lr.r.ReadSlice('\n')
	if err == nil {
		if len(b) > maxLine {
			return nil, errLineTooLong
		}
		return trimCRLF(b), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	lr.line = append(lr.line[:0], b...)
	for {
		if len(lr.line) > maxLine {
			// Oversized even if the stream ends here: report the bound,
			// not whatever error the next read would surface.
			return nil, errLineTooLong
		}
		b, err = lr.r.ReadSlice('\n')
		lr.line = append(lr.line, b...)
		if len(lr.line) > maxLine {
			return nil, errLineTooLong
		}
		if err == nil {
			return trimCRLF(lr.line), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// trimCRLF drops a trailing LF and an optional CR before it.
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// asciiInt parses a decimal integer with an optional +/- sign without
// allocating. It rejects empty input, junk, and anything longer than 18
// digits (every in-protocol bound is far smaller).
func asciiInt(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// cmdReader parses RESP requests into per-connection reusable argument
// buffers.
type cmdReader struct {
	lr   lineReader
	args [][]byte // reused per-arg buffers; grows to the peak arity seen
	crlf [2]byte
}

func newCmdReader(r *bufio.Reader) *cmdReader {
	return &cmdReader{lr: lineReader{r: r}}
}

// buffered reports how much input is already waiting in the reader —
// the server's "more pipelined commands pending" signal.
func (cr *cmdReader) buffered() int { return cr.lr.r.Buffered() }

// argBuf returns the i-th argument buffer resized to ln bytes, growing
// the arg table and the buffer's capacity as needed.
func (cr *cmdReader) argBuf(i, ln int) []byte {
	for len(cr.args) <= i {
		cr.args = append(cr.args, nil)
	}
	if cap(cr.args[i]) < ln {
		cr.args[i] = make([]byte, ln)
	}
	cr.args[i] = cr.args[i][:ln]
	return cr.args[i]
}

// ReadCommand parses one request: either a RESP array of bulk strings
// or an inline whitespace-separated line. io.EOF means orderly end of
// stream; a nil, error-free result is an empty line to ignore. The
// returned slices are owned by the reader and valid only until the next
// ReadCommand call; anything that must outlive command execution (keys
// inserted into the store) must be copied.
func (cr *cmdReader) ReadCommand() ([][]byte, error) {
	line, err := cr.lr.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil // empty line: ignore
	}
	if line[0] != '*' {
		return cr.splitInline(line)
	}
	n, ok := asciiInt(line[1:])
	if !ok || n < 0 || n > maxArgs {
		return nil, fmt.Errorf("%w: bad array header %q", ErrProtocol, line)
	}
	for i := 0; i < n; i++ {
		hdr, err := cr.lr.readLine()
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("%w: expected bulk header, got %q", ErrProtocol, hdr)
		}
		ln, ok := asciiInt(hdr[1:])
		if !ok || ln < 0 || ln > maxBulk {
			return nil, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, hdr)
		}
		buf := cr.argBuf(i, ln)
		if _, err := io.ReadFull(cr.lr.r, buf); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(cr.lr.r, cr.crlf[:]); err != nil {
			return nil, err
		}
		if cr.crlf[0] != '\r' || cr.crlf[1] != '\n' {
			return nil, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
		}
	}
	return cr.args[:n], nil
}

// splitInline copies each whitespace-separated field of an inline
// command into the reusable argument buffers (the line itself aliases
// the read buffer, which the bulk of ReadCommand may overwrite).
func (cr *cmdReader) splitInline(line []byte) ([][]byte, error) {
	n := 0
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			i++
		}
		if n >= maxArgs {
			return nil, fmt.Errorf("%w: too many inline arguments", ErrProtocol)
		}
		copy(cr.argBuf(n, i-start), line[start:i])
		n++
	}
	return cr.args[:n], nil
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '\v', '\f':
		return true
	}
	return false
}

// respWriter writes replies through a bufio.Writer with a reusable
// numeric scratch, keeping the steady-state reply path allocation-free
// (the fmt-based writers it replaced boxed every integer).
type respWriter struct {
	w   *bufio.Writer
	num []byte
}

func newRespWriter(w *bufio.Writer) *respWriter {
	return &respWriter{w: w, num: make([]byte, 0, 24)}
}

func (rw *respWriter) flush() error { return rw.w.Flush() }

func (rw *respWriter) simple(s string) error {
	rw.w.WriteByte('+')
	rw.w.WriteString(s)
	_, err := rw.w.WriteString("\r\n")
	return err
}

func (rw *respWriter) error(msg string) error {
	rw.w.WriteString("-ERR ")
	rw.w.WriteString(msg)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// busy writes the -BUSY shed-load reply: the addressed shard owner's
// command ring was full, so the store refused the command rather than
// block the connection reader. Clients back off and retry.
func (rw *respWriter) busy() error {
	_, err := rw.w.WriteString("-BUSY kvstore overloaded; retry later\r\n")
	return err
}

func (rw *respWriter) integer(n int64) error {
	rw.w.WriteByte(':')
	rw.num = strconv.AppendInt(rw.num[:0], n, 10)
	rw.w.Write(rw.num)
	_, err := rw.w.WriteString("\r\n")
	return err
}

func (rw *respWriter) bulkHeader(n int) error {
	rw.w.WriteByte('$')
	rw.num = strconv.AppendInt(rw.num[:0], int64(n), 10)
	rw.w.Write(rw.num)
	_, err := rw.w.WriteString("\r\n")
	return err
}

func (rw *respWriter) bulk(b []byte) error {
	rw.bulkHeader(len(b))
	rw.w.Write(b)
	_, err := rw.w.WriteString("\r\n")
	return err
}

func (rw *respWriter) bulkString(s string) error {
	rw.bulkHeader(len(s))
	rw.w.WriteString(s)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// boolean writes :1 or :0.
func (rw *respWriter) boolean(b bool) error {
	if b {
		return rw.integer(1)
	}
	return rw.integer(0)
}

// value writes a lookup's result: its error, nil when absent, else the
// bulk value.
func (rw *respWriter) value(v []byte, ok bool, err error) error {
	switch {
	case err != nil:
		return rw.error(err.Error())
	case !ok:
		return rw.nilReply()
	}
	return rw.bulk(v)
}

func (rw *respWriter) nilReply() error {
	_, err := rw.w.WriteString("$-1\r\n")
	return err
}

func (rw *respWriter) arrayHeader(n int) error {
	rw.w.WriteByte('*')
	rw.num = strconv.AppendInt(rw.num[:0], int64(n), 10)
	rw.w.Write(rw.num)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// ReplyWriter implementation: the exported surface a ClusterHook
// writes through. WriteError is deliberately raw (no "-ERR " prefix)
// so redirects keep their own leading token ("MOVED ...").

func (rw *respWriter) WriteSimple(s string) { rw.simple(s) }

func (rw *respWriter) WriteError(msg string) {
	rw.w.WriteByte('-')
	rw.w.WriteString(msg)
	rw.w.WriteString("\r\n")
}

func (rw *respWriter) WriteInteger(n int64)     { rw.integer(n) }
func (rw *respWriter) WriteBulk(b []byte)       { rw.bulk(b) }
func (rw *respWriter) WriteBulkString(s string) { rw.bulkString(s) }
func (rw *respWriter) WriteNil()                { rw.nilReply() }
func (rw *respWriter) WriteArrayHeader(n int)   { rw.arrayHeader(n) }

var _ ReplyWriter = (*respWriter)(nil)

// Reply reading (client side).

// replyReader parses server replies into a reusable bulk scratch.
type replyReader struct {
	lr  lineReader
	buf []byte // bulk payload scratch, reused across replies
}

// read parses one reply. A nil bulk returns (nil, false, nil); an error
// reply returns a ReplyError. The returned value aliases the reader's
// scratch (or the read buffer, for line replies) and is valid only
// until the next read.
func (rr *replyReader) read() (value []byte, ok bool, err error) {
	line, err := rr.lr.readLine()
	if err != nil {
		return nil, false, err
	}
	if len(line) == 0 {
		return nil, false, fmt.Errorf("%w: empty reply", ErrProtocol)
	}
	switch line[0] {
	case '+', ':':
		return line[1:], true, nil
	case '-':
		msg := line[1:]
		if len(msg) >= 4 && string(msg[:4]) == "ERR " {
			msg = msg[4:]
		}
		return nil, false, ReplyError(msg)
	case '$':
		n, convOK := asciiInt(line[1:])
		if !convOK || n > maxBulk {
			return nil, false, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if n < 0 {
			return nil, false, nil // nil reply
		}
		if cap(rr.buf) < n+2 {
			rr.buf = make([]byte, n+2)
		}
		buf := rr.buf[:n+2]
		if _, err := io.ReadFull(rr.lr.r, buf); err != nil {
			return nil, false, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return nil, false, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
		}
		return buf[:n], true, nil
	default:
		return nil, false, fmt.Errorf("%w: unknown reply type %q", ErrProtocol, line)
	}
}

// readReply parses one server reply, returning a caller-owned copy of
// the value. A nil bulk returns (nil, false, nil). Convenience wrapper
// over replyReader for one-shot readers; pipelined paths hold a
// replyReader and reuse its scratch instead.
func readReply(r *bufio.Reader) (value []byte, ok bool, err error) {
	rr := replyReader{lr: lineReader{r: r}}
	v, ok, err := rr.read()
	if v != nil {
		v = append([]byte(nil), v...)
	}
	return v, ok, err
}

// appendCommand encodes args as a RESP array of bulk strings onto dst.
func appendCommand(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}
