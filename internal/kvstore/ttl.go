package kvstore

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ttlTable tracks per-key expiry deadlines in traditional memory.
// Expiration is lazy (checked on access) plus sweepable: expired entries
// free their soft memory voluntarily, which is cheaper than waiting for
// a reclamation demand to take them.
type ttlTable struct {
	mu sync.Mutex
	m  map[string]time.Time
	// n mirrors len(m) so the hot read paths (every GET checks expiry)
	// skip the mutex entirely while no TTLs are set.
	n   atomic.Int64
	now func() time.Time
}

func newTTLTable(now func() time.Time) *ttlTable {
	if now == nil {
		now = time.Now
	}
	return &ttlTable{m: make(map[string]time.Time), now: now}
}

// set records a deadline for key. The key is copied even when it is
// already present: assigning to an existing map key overwrites the
// stored key too, and key may alias a buffer the caller reuses.
func (t *ttlTable) set(key string, deadline time.Time) {
	t.mu.Lock()
	if _, ok := t.m[key]; !ok {
		t.n.Add(1)
	}
	t.m[strings.Clone(key)] = deadline
	t.mu.Unlock()
}

// clear removes key's deadline, reporting whether one existed.
func (t *ttlTable) clear(key string) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	_, ok := t.m[key]
	if ok {
		delete(t.m, key)
		t.n.Add(-1)
	}
	t.mu.Unlock()
	return ok
}

// reset drops every deadline.
func (t *ttlTable) reset() {
	t.mu.Lock()
	clear(t.m)
	t.n.Store(0)
	t.mu.Unlock()
}

// due reports whether key has an expired deadline.
func (t *ttlTable) due(key string) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dl, ok := t.m[key]
	return ok && !t.now().Before(dl)
}

// remaining returns the time left (hasTTL=false when none set).
func (t *ttlTable) remaining(key string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dl, ok := t.m[key]
	if !ok {
		return 0, false
	}
	d := dl.Sub(t.now())
	if d < 0 {
		d = 0
	}
	return d, true
}

// expired returns all keys whose deadline has passed.
func (t *ttlTable) expired() []string {
	if t.n.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []string
	for k, dl := range t.m {
		if !now.Before(dl) {
			out = append(out, k)
		}
	}
	return out
}

// Expire sets key's time-to-live, reporting whether the key exists
// (demoted-but-spilled keys count as existing).
func (s *Store) Expire(key string, d time.Duration) bool {
	var c Command
	c.Op, c.Key, c.Delta = OpExpire, key, int64(d)
	_ = s.Do(&c) // a closed store holds no keys
	return c.Ok
}

// TTL reports key's remaining time-to-live. exists is false for missing
// keys; hasTTL is false for keys without a deadline.
func (s *Store) TTL(key string) (d time.Duration, exists, hasTTL bool) {
	var c Command
	c.Op, c.Key = OpTTL, key
	_ = s.Do(&c) // a closed store holds no keys
	if !c.Ok || c.N < 0 {
		return 0, c.Ok, false
	}
	return time.Duration(c.N), true, true
}

// Persist removes key's time-to-live, reporting whether one was removed.
func (s *Store) Persist(key string) bool {
	var c Command
	c.Op, c.Key = OpPersist, key
	_ = s.Do(&c) // a closed store holds no keys
	return c.Ok
}

// SweepExpired removes every expired key, returning how many were
// collected. Servers call it periodically so idle expired entries do
// not linger in soft memory. The sweep is submitted through the shard
// owner rings (one internal command per shard holding TTLs), so expiry
// executes run-to-completion on each owner and never races that shard's
// command stream; shards with no deadlines cost one atomic load.
func (s *Store) SweepExpired() int {
	b := s.NewBatch()
	for i, sh := range s.shards {
		if sh.ttl.n.Load() == 0 {
			continue
		}
		b.addSweep(i)
	}
	if b.Len() == 0 {
		return 0
	}
	_ = b.Exec()
	n := 0
	for i := 0; i < b.Len(); i++ {
		n += int(b.Cmd(i).N)
	}
	return n
}

// Expired returns the number of entries collected by TTL expiry.
func (s *Store) Expired() int64 { return s.expired.Load() }
