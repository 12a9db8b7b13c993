package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// Client is a minimal RESP client for the Server, used by the examples
// and integration tests. Single calls are one request, one reply; use
// Pipeline to batch many commands into one write. Safe for concurrent
// use (calls serialize).
type Client struct {
	mu  sync.Mutex
	nc  net.Conn
	rr  replyReader
	w   *bufio.Writer
	enc []byte // request encoding scratch, reused across calls
}

// DialClient connects to a kvstore server.
func DialClient(network, addr string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial: %w", err)
	}
	return &Client{
		nc: nc,
		rr: replyReader{lr: lineReader{r: bufio.NewReaderSize(nc, connBufSize)}},
		w:  bufio.NewWriterSize(nc, connBufSize),
	}, nil
}

// IsOverloaded reports whether err is the server's -BUSY shed-load
// reply: the addressed shard owner's command ring was full, so the
// store refused the command instead of queueing it. The command did not
// execute; back off and retry.
func IsOverloaded(err error) bool {
	re, ok := err.(ReplyError)
	return ok && len(re) >= 4 && re[:4] == "BUSY"
}

// do sends one command as a RESP array and reads the reply. The value
// is a caller-owned copy (it must survive past the mutex).
func (c *Client) do(args ...string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc = appendCommand(c.enc[:0], args...)
	if _, err := c.w.Write(c.enc); err != nil {
		return nil, false, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, false, err
	}
	v, ok, err := c.rr.read()
	if v != nil {
		v = append([]byte(nil), v...)
	}
	return v, ok, err
}

// Do sends one arbitrary command and returns a caller-owned copy of
// the reply value; ok is false for nil replies. Server error replies
// (including cluster redirects — see IsMoved) come back as ReplyError.
// The cluster layer uses it for commands the typed helpers do not
// cover (RSET, WAIT, CLUSTER).
func (c *Client) Do(args ...string) ([]byte, bool, error) {
	return c.do(args...)
}

// Set stores value under key.
func (c *Client) Set(key, value string) error {
	_, _, err := c.do("SET", key, value)
	return err
}

// Get fetches key; ok is false on miss (including reclaimed entries).
func (c *Client) Get(key string) (string, bool, error) {
	v, ok, err := c.do("GET", key)
	return string(v), ok, err
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int, error) {
	args := append([]string{"DEL"}, keys...)
	v, _, err := c.do(args...)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(v))
}

// DBSize returns the number of live entries.
func (c *Client) DBSize() (int, error) {
	v, _, err := c.do("DBSIZE")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(v))
}

// Pipeline accumulates commands and sends them in one batch, reading
// the replies in order — the client-side half of the server's flush
// coalescing. Not safe for concurrent use; Exec serializes against the
// owning client's other calls.
type Pipeline struct {
	c   *Client
	buf []byte
	n   int
}

// Pipeline returns a reusable batch bound to c.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Command queues one command. Nothing is written until Exec.
func (p *Pipeline) Command(args ...string) {
	p.buf = appendCommand(p.buf, args...)
	p.n++
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return p.n }

// Exec writes every queued command in a single batch, then streams each
// reply to fn in queue order and resets the pipeline for reuse. The
// value passed to fn aliases the client's scratch and is only valid for
// the duration of the callback. Per-command server errors arrive as a
// ReplyError and do not stop the batch; transport or protocol failures
// abort and are returned.
func (p *Pipeline) Exec(fn func(i int, value []byte, ok bool, err error)) error {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(p.buf); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	for i := 0; i < p.n; i++ {
		v, ok, err := c.rr.read()
		if err != nil {
			if _, isReply := err.(ReplyError); !isReply {
				return err
			}
		}
		if fn != nil {
			fn(i, v, ok, err)
		}
	}
	p.buf = p.buf[:0]
	p.n = 0
	return nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.WriteString("*1\r\n$4\r\nQUIT\r\n"); err == nil {
		c.w.Flush()
	}
	return c.nc.Close()
}
