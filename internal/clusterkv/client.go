package clusterkv

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"softmem/internal/kvstore"
)

// maxRedirects bounds redirect chasing per command; a healthy cluster
// answers in one hop, a converging one in two.
const maxRedirects = 5

// Client is a cluster-aware RESP client: it caches the slot → node map
// it learns from -MOVED redirects, routes each command to the cached
// owner, and follows redirects when the ring has moved. Safe for
// concurrent use.
type Client struct {
	mu    sync.Mutex
	seeds []string
	conns map[string]*kvstore.Client
	slots map[int]string // learned slot owners
}

// NewClient returns a client bootstrapped from any live node addresses.
func NewClient(seeds ...string) (*Client, error) {
	if len(seeds) == 0 {
		return nil, errors.New("clusterkv: client needs at least one seed address")
	}
	return &Client{
		seeds: append([]string(nil), seeds...),
		conns: make(map[string]*kvstore.Client),
		slots: make(map[int]string),
	}, nil
}

// conn returns (dialing if needed) the connection to addr.
func (c *Client) conn(addr string) (*kvstore.Client, error) {
	c.mu.Lock()
	cli := c.conns[addr]
	c.mu.Unlock()
	if cli != nil {
		return cli, nil
	}
	cli, err := kvstore.DialClient("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if old := c.conns[addr]; old != nil {
		c.mu.Unlock()
		cli.Close()
		return old, nil
	}
	c.conns[addr] = cli
	c.mu.Unlock()
	return cli, nil
}

// drop forgets a failed connection.
func (c *Client) drop(addr string) {
	c.mu.Lock()
	cli := c.conns[addr]
	delete(c.conns, addr)
	c.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// target picks the node for a key: the cached slot owner, else a seed.
func (c *Client) target(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr, ok := c.slots[SlotForKey(key)]; ok {
		return addr
	}
	return c.seeds[0]
}

// learn records a redirect's teaching.
func (c *Client) learn(slot int, addr string) {
	c.mu.Lock()
	c.slots[slot] = addr
	c.mu.Unlock()
}

// Do routes one keyed command (key decides the node), following MOVED
// redirects and updating the slot cache as it goes.
func (c *Client) Do(key string, args ...string) ([]byte, bool, error) {
	addr := c.target(key)
	var lastErr error
	for hop := 0; hop < maxRedirects; hop++ {
		cli, err := c.conn(addr)
		if err != nil {
			// Node unreachable: fall back to any other known address.
			lastErr = err
			addr = c.fallback(addr)
			if addr == "" {
				return nil, false, lastErr
			}
			continue
		}
		v, ok, err := cli.Do(args...)
		if slot, owner, moved := kvstore.IsMoved(err); moved {
			c.learn(slot, owner)
			addr = owner
			lastErr = err
			continue
		}
		if err != nil {
			if _, isReply := err.(kvstore.ReplyError); !isReply {
				c.drop(addr)
			}
			return v, ok, err
		}
		c.learn(SlotForKey(key), addr)
		return v, ok, nil
	}
	return nil, false, fmt.Errorf("clusterkv: too many redirects for %q (last: %v)", key, lastErr)
}

// fallback returns some other reachable candidate address.
func (c *Client) fallback(failed string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.seeds {
		if s != failed {
			return s
		}
	}
	return ""
}

// Set stores value under key (fire-and-forget replication).
func (c *Client) Set(key, value string) error {
	_, _, err := c.Do(key, "SET", key, value)
	return err
}

// SetSync is the eventual-ack consistency mode: SET followed by WAIT on
// the same node, so a nil return means the write was applied by the
// owner AND acked by its replication successor(s) within timeout.
func (c *Client) SetSync(key, value string, timeout time.Duration) error {
	if err := c.Set(key, value); err != nil {
		return err
	}
	addr := c.target(key)
	cli, err := c.conn(addr)
	if err != nil {
		return err
	}
	v, _, err := cli.Do("WAIT", "1", fmt.Sprintf("%d", timeout.Milliseconds()))
	if err != nil {
		return err
	}
	if string(v) == "0" {
		return fmt.Errorf("clusterkv: write to %q not replicated within %v", key, timeout)
	}
	return nil
}

// Get fetches key; ok is false on miss.
func (c *Client) Get(key string) (string, bool, error) {
	v, ok, err := c.Do(key, "GET", key)
	return string(v), ok, err
}

// Del removes key.
func (c *Client) Del(key string) error {
	_, _, err := c.Do(key, "DEL", key)
	return err
}

// Close tears down every connection.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = map[string]*kvstore.Client{}
	c.mu.Unlock()
	for _, cli := range conns {
		cli.Close()
	}
}
