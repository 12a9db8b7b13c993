package spill

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/faultinject"
)

// ErrStoreClosed reports use of a closed Store.
var ErrStoreClosed = errors.New("spill: store closed")

// Config parameterizes a Store.
type Config struct {
	// Dir is the spill directory (required); it is created if absent.
	Dir string
	// BudgetBytes is the disk budget — the high watermark. When total
	// segment bytes exceed it, whole segments are evicted oldest-first
	// until usage falls to the low watermark (lowWatermark). Default
	// 256 MiB.
	BudgetBytes int64
	// SegmentBytes is the rotation threshold for the active segment.
	// Default 4 MiB.
	SegmentBytes int64
	// CompactInterval is the background GC period. Zero selects the
	// default 30 s; negative disables the background goroutine
	// (Compact may still be called directly).
	CompactInterval time.Duration
	// CompressMin is the smallest value size worth flate-compressing;
	// negative disables compression entirely. Zero selects the default
	// 64 bytes.
	CompressMin int
}

func (c *Config) setDefaults() {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 256 << 20
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 30 * time.Second
	}
	if c.CompressMin == 0 {
		c.CompressMin = 64
	}
}

const (
	// lowWatermark is the fraction of BudgetBytes eviction drains down
	// to.
	lowWatermark = 0.9
	// compactRatio is the stale-byte fraction above which a sealed
	// segment is rewritten by compaction.
	compactRatio = 0.5
)

// recordLoc locates one live record on disk.
type recordLoc struct {
	seg uint64
	off int64
	len int32
}

// nsKey names one key of one namespace.
type nsKey struct{ ns, key string }

// Store is the spill tier: an append-only segment log plus a
// traditional-memory index of the newest record per namespace/key. All
// methods are safe for concurrent use.
type Store struct {
	cfg Config
	m   counters
	// lat holds operation latency histograms once RegisterMetrics has
	// run; nil skips timing.
	lat atomic.Pointer[spillLatency]

	mu     sync.Mutex
	segs   map[uint64]*segment
	order  []uint64 // ascending segment ids, active last
	active *segment
	index  map[string]map[string]recordLoc
	// promoting holds each key's newest promotion in flight.
	promoting map[nsKey]*Promotion
	nextID    uint64
	size      int64 // Σ segment sizes
	lives     int   // Σ live index entries
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open creates or recovers a Store over cfg.Dir. Existing segments are
// scanned record-by-record; a torn tail from a crash is truncated away
// and every complete record is re-indexed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("spill: Config.Dir is required")
	}
	cfg.setDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: mkdir: %w", err)
	}
	s := &Store{
		cfg:       cfg,
		segs:      make(map[uint64]*segment),
		index:     make(map[string]map[string]recordLoc),
		promoting: make(map[nsKey]*Promotion),
		stop:      make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if cfg.CompactInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// recover scans every existing segment in id order, rebuilding the index
// (later records supersede earlier ones; tombstones erase). Segments
// with torn tails are truncated to their last complete record.
func (s *Store) recover() error {
	ids, err := listSegmentIDs(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		sg, err := openSegment(s.cfg.Dir, id)
		if err != nil {
			return err
		}
		if id >= s.nextID {
			s.nextID = id + 1
		}
		if sg.size <= int64(segHeaderSize) {
			// Header-only (a previous Open's never-written active segment)
			// or torn mid-create: delete it now instead of carrying a dead
			// file descriptor across every restart.
			sg.remove()
			continue
		}
		validEnd, clean, err := sg.scan(func(e scanEntry) {
			s.applyRecovered(sg, e)
		})
		if err != nil {
			sg.close()
			return err
		}
		if !clean {
			s.m.CorruptRecords.Inc()
			if err := sg.truncate(validEnd); err != nil {
				sg.close()
				return err
			}
			if sg.size <= int64(segHeaderSize) {
				sg.remove()
				continue
			}
		}
		s.segs[id] = sg
		s.order = append(s.order, id)
		s.size += sg.size
	}
	// Appends always go to a fresh segment; recovered segments are
	// sealed (compaction will fold small ones forward).
	return s.rotateLocked()
}

// applyRecovered folds one scanned record into the index during
// recovery.
func (s *Store) applyRecovered(sg *segment, e scanEntry) {
	ns := s.index[e.rec.Namespace]
	if old, ok := ns[e.rec.Key]; ok {
		if osg := s.segs[old.seg]; osg != nil {
			osg.stale += int64(old.len)
			osg.live--
		} else if old.seg == sg.id {
			sg.stale += int64(old.len)
			sg.live--
		}
		delete(ns, e.rec.Key)
		s.lives--
	}
	if e.rec.Tombstone {
		// The tombstone itself is immediately stale weight.
		sg.stale += int64(e.len)
		return
	}
	if ns == nil {
		ns = make(map[string]recordLoc)
		s.index[e.rec.Namespace] = ns
	}
	ns[e.rec.Key] = recordLoc{seg: sg.id, off: e.off, len: e.len}
	sg.live++
	s.lives++
}

// gcLoop is the background segment GC: periodically compact sealed
// segments whose stale fraction crossed the threshold.
func (s *Store) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Compact()
		}
	}
}

// Close stops background GC and releases every file handle. Data stays
// on disk for the next Open.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, sg := range s.segs {
		sg.close()
	}
	s.mu.Unlock()
}

// Put demotes a value: it appends a record and points the index at it.
// The previous record for the key, if any, becomes stale.
func (s *Store) Put(namespace, key string, value []byte) error {
	if lat := s.lat.Load(); lat != nil {
		t0 := time.Now()
		err := s.put(namespace, key, value)
		lat.put.ObserveDuration(time.Since(t0))
		return err
	}
	return s.put(namespace, key, value)
}

func (s *Store) put(namespace, key string, value []byte) error {
	buf, err := appendRecord(nil, record{Namespace: namespace, Key: key, Value: value}, s.cfg.CompressMin)
	if err != nil {
		s.m.WriteErrors.Inc()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(namespace, key, buf, len(value))
}

// putLocked appends buf, the encoded record of an n-byte value, and
// points the index at it. Caller holds s.mu.
func (s *Store) putLocked(namespace, key string, buf []byte, n int) error {
	if s.closed {
		return ErrStoreClosed
	}
	loc, err := s.appendLocked(buf)
	if err != nil {
		s.m.WriteErrors.Inc()
		return err
	}
	s.indexPutLocked(namespace, key, loc)
	s.m.Demotions.Inc()
	s.m.DemotedBytes.Add(int64(n))
	s.evictLocked()
	return nil
}

// Get returns the value stored for namespace/key, decompressed and
// CRC-verified. found is false when the key was never demoted or has
// been dropped or evicted.
func (s *Store) Get(namespace, key string) (value []byte, found bool, err error) {
	if lat := s.lat.Load(); lat != nil {
		t0 := time.Now()
		value, found, err = s.get(namespace, key)
		lat.get.ObserveDuration(time.Since(t0))
		return value, found, err
	}
	return s.get(namespace, key)
}

func (s *Store) get(namespace, key string) (value []byte, found bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrStoreClosed
	}
	buf, loc, err := s.readLocked(namespace, key)
	s.mu.Unlock()
	if buf == nil {
		return nil, false, err
	}
	// Decompression and CRC verification run outside the store mutex so
	// slow decodes do not serialize other spill traffic (Put from reclaim
	// callbacks in particular).
	rec, err := decodeFull(buf)
	if err != nil {
		s.mu.Lock()
		if cur, ok := s.index[namespace][key]; ok && cur == loc {
			s.indexDropLocked(namespace, key, loc)
		}
		s.mu.Unlock()
		s.m.CorruptRecords.Inc()
		s.m.Misses.Inc()
		return nil, false, err
	}
	s.m.Hits.Inc()
	return rec.Value, true, nil
}

// readLocked returns namespace/key's raw record and where it lies, or
// nil for a miss; a record that cannot be read back is dropped from the
// index so the failure is paid once. Caller holds s.mu.
func (s *Store) readLocked(namespace, key string) ([]byte, recordLoc, error) {
	loc, ok := s.index[namespace][key]
	sg := s.segs[loc.seg]
	if !ok || sg == nil {
		s.m.Misses.Inc()
		return nil, loc, nil
	}
	buf, err := sg.readBytes(loc.off, loc.len)
	if err != nil {
		s.indexDropLocked(namespace, key, loc)
		s.m.CorruptRecords.Inc()
		s.m.Misses.Inc()
		return nil, loc, err
	}
	return buf, loc, nil
}

// Drop removes namespace/key from the tier, logging a tombstone so the
// deletion survives a crash and restart, and supersedes its promotion in
// flight. It reports whether the key was on disk or in transit.
func (s *Store) Drop(namespace, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	promoting := s.supersedeLocked(nsKey{namespace, key})
	loc, ok := s.index[namespace][key]
	if !ok {
		return promoting
	}
	s.indexDropLocked(namespace, key, loc)
	s.tombstoneLocked(namespace, key)
	// Tombstones grow the log too: delete-heavy bursts must not push disk
	// usage past the budget.
	s.evictLocked()
	return true
}

// DropAll is Drop for every key of namespace: FLUSHALL's spill half.
func (s *Store) DropAll(namespace string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for at := range s.promoting {
		if at.ns == namespace {
			s.supersedeLocked(at)
		}
	}
	for key, loc := range s.index[namespace] {
		s.indexDropLocked(namespace, key, loc)
		s.tombstoneLocked(namespace, key)
	}
	s.evictLocked()
}

// supersedeLocked supersedes and forgets the key's promotion in flight,
// reporting whether there was one. Caller holds s.mu.
func (s *Store) supersedeLocked(at nsKey) bool {
	p := s.promoting[at]
	if p != nil {
		p.superseded.Store(true)
		delete(s.promoting, at)
		close(p.ended)
	}
	return p != nil
}

// A Promotion is one key in transit from disk back to soft memory: Take
// has removed its record, and the caller re-inserts Value into the hot
// tier, then calls Done, or Abort if the hot tier cannot take it. A Drop
// of the key meanwhile supersedes the promotion: the write or deletion
// that dropped it is newer, so Value must not be put back.
type Promotion struct {
	Value      []byte
	st         *Store
	at         nsKey
	superseded atomic.Bool // set under st.mu
	// ended is closed, under st.mu, when the promotion ends: Done, Abort
	// or a superseding Drop, whichever removes it from st.promoting.
	// Other promoters of the key wait on it.
	ended chan struct{}
}

// Superseded reports whether a Drop of the key has landed since Take.
func (p *Promotion) Superseded() bool { return p.superseded.Load() }

// Done ends the promotion.
func (p *Promotion) Done() {
	p.st.mu.Lock()
	p.st.endLocked(p)
	p.st.mu.Unlock()
}

// Abort ends a promotion whose value the hot tier could not take by
// writing it back to disk, unless a Drop superseded it.
func (p *Promotion) Abort() {
	s := p.st
	buf, err := appendRecord(nil, record{Namespace: p.at.ns, Key: p.at.key, Value: p.Value}, s.cfg.CompressMin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endLocked(p)
	if err == nil && !p.Superseded() {
		_ = s.putLocked(p.at.ns, p.at.key, buf, len(p.Value))
	}
}

// endLocked forgets p and wakes its waiters, unless a Drop superseded it
// and did both already. Caller holds s.mu.
func (s *Store) endLocked(p *Promotion) {
	if s.promoting[p.at] == p {
		delete(s.promoting, p.at)
		close(p.ended)
	}
}

// Take atomically reads and removes namespace/key and records it as
// being promoted, in one hold of the lock: two promoters cannot both win
// the record, and no Drop falls between the removal and the record. When
// another Take is promoting the key, Take returns that promotion's end
// instead: busy is closed once the other promoter's Done, Abort or a
// superseding Drop has landed. Both results are nil for a key that is
// neither on disk nor in transit.
func (s *Store) Take(namespace, key string) (p *Promotion, busy <-chan struct{}) {
	if lat := s.lat.Load(); lat != nil {
		t0 := time.Now()
		p, busy = s.take(namespace, key)
		lat.promote.ObserveDuration(time.Since(t0))
		return p, busy
	}
	return s.take(namespace, key)
}

func (s *Store) take(namespace, key string) (*Promotion, <-chan struct{}) {
	at := nsKey{namespace, key}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil
	}
	// A key in transit is no miss: the caller waits for its promoter.
	if q := s.promoting[at]; q != nil {
		s.mu.Unlock()
		return nil, q.ended
	}
	buf, loc, _ := s.readLocked(namespace, key)
	if buf == nil {
		s.mu.Unlock()
		return nil, nil
	}
	s.indexDropLocked(namespace, key, loc)
	s.tombstoneLocked(namespace, key)
	s.evictLocked()
	p := &Promotion{st: s, at: at, ended: make(chan struct{})}
	s.promoting[at] = p
	s.mu.Unlock()
	// Decode (decompress + CRC) outside the mutex; see Get.
	rec, err := decodeFull(buf)
	if err != nil {
		// Already removed and tombstoned above — the corruption is paid
		// once and the miss stands.
		p.Done()
		s.m.CorruptRecords.Inc()
		s.m.Misses.Inc()
		return nil, nil
	}
	s.m.Hits.Inc()
	s.m.Promotions.Inc()
	s.m.PromotedBytes.Add(int64(len(rec.Value)))
	p.Value = rec.Value
	return p, nil
}

// tombstoneLocked best-effort logs a deletion so it survives restart.
func (s *Store) tombstoneLocked(namespace, key string) {
	buf, err := appendRecord(nil, record{Namespace: namespace, Key: key, Tombstone: true}, -1)
	if err != nil {
		return
	}
	if tl, err := s.appendLocked(buf); err == nil {
		// Tombstones are dead weight the moment they land.
		if sg := s.segs[tl.seg]; sg != nil {
			sg.stale += int64(tl.len)
		}
	}
}

// Contains reports whether namespace/key is currently spilled or in
// transit back to soft memory, without touching hit/miss accounting.
func (s *Store) Contains(namespace, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[namespace][key]
	return ok || s.promoting[nsKey{namespace, key}] != nil
}

// Len returns the number of live records in a namespace.
func (s *Store) Len(namespace string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index[namespace])
}

// BytesOnDisk returns the tier's current disk footprint; the SMA's
// spill reporter feeds this to the daemon.
func (s *Store) BytesOnDisk() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Status is the /spill payload of a process with a spill tier.
type Status struct {
	BytesOnDisk int64 `json:"bytes_on_disk"`
	Stats       Stats `json:"stats"`
}

// Sink binds a namespace of this store for one SDS.
func (s *Store) Sink(namespace string) *Sink {
	return &Sink{st: s, ns: namespace}
}

// Compact rewrites every sealed segment whose stale fraction is at
// least Config.CompactRatio, copying live records (and any tombstones
// whose deletions must stay durable) into the active segment, and
// returns the number of segments compacted. It is called by the
// background GC and may be called directly (tests, smdctl-style tools).
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	n := 0
	// Snapshot candidates: compaction appends to the active segment and
	// may rotate, mutating s.order.
	var victims []uint64
	for _, id := range s.order {
		sg := s.segs[id]
		if sg == nil || sg == s.active {
			continue
		}
		if sg.live == 0 || float64(sg.stale)/float64(sg.size) >= compactRatio {
			victims = append(victims, id)
		}
	}
	lat := s.lat.Load()
	for _, id := range victims {
		t0 := time.Now()
		if s.compactSegmentLocked(id) {
			n++
			if lat != nil {
				lat.compact.ObserveDuration(time.Since(t0))
			}
		}
	}
	return n
}

// compactSegmentLocked copies a segment's live records — and every
// tombstone still shadowing an older on-disk record — forward, then
// deletes the file. Caller holds s.mu.
func (s *Store) compactSegmentLocked(id uint64) bool {
	sg := s.segs[id]
	if sg == nil || sg == s.active {
		return false
	}
	reclaimed := sg.size
	ok := true
	_, _, err := sg.scan(func(e scanEntry) {
		if !ok {
			return
		}
		if e.rec.Tombstone {
			if s.tombstoneObsoleteLocked(id, e.rec.Namespace, e.rec.Key) {
				return // nothing left on disk for it to shadow
			}
			// Rewrite the tombstone into the active segment: the key's
			// staleness otherwise exists only in the in-memory index, and
			// a crash would resurrect the shadowed record at recovery.
			buf, aerr := appendRecord(nil, e.rec, -1)
			if aerr != nil {
				ok = false
				return
			}
			loc, aerr := s.appendLocked(buf)
			if aerr != nil {
				ok = false
				return
			}
			if asg := s.segs[loc.seg]; asg != nil {
				asg.stale += int64(loc.len) // dead weight wherever it lands
			}
			reclaimed -= int64(loc.len)
			return
		}
		ns := s.index[e.rec.Namespace]
		cur, live := ns[e.rec.Key]
		if !live || cur.seg != id || cur.off != e.off {
			return // superseded — this is the stale weight being dropped
		}
		// Re-encode from the decoded record: the value re-compresses
		// into the active segment unchanged in content.
		buf, err := appendRecord(nil, e.rec, s.cfg.CompressMin)
		if err != nil {
			ok = false
			return
		}
		loc, err := s.appendLocked(buf)
		if err != nil {
			ok = false
			return
		}
		ns[e.rec.Key] = loc
		if asg := s.segs[loc.seg]; asg != nil {
			asg.live++
		}
		sg.live--
		reclaimed -= int64(loc.len)
	})
	if err != nil || !ok {
		return false
	}
	s.size -= sg.size
	delete(s.segs, id)
	s.dropOrderLocked(id)
	sg.remove()
	s.m.Compactions.Inc()
	if reclaimed > 0 {
		s.m.CompactedBytes.Add(reclaimed)
	}
	return true
}

// tombstoneObsoleteLocked reports whether a tombstone for namespace/key
// found in segment id may be discarded during compaction. Recovery
// replays segments in position order, so dropping a tombstone is only
// safe when nothing it shadows can resurface after a crash:
//
//   - the index holds a live record for the key — that record is always
//     at a newer position than any tombstone (a Put after the Drop), so
//     replay lands on it last regardless; or
//   - id is the oldest surviving segment, so every shadowed record in an
//     earlier segment is already gone, and any earlier in this same
//     segment is stale and dies in this same compaction.
//
// Otherwise the tombstone must be rewritten forward to keep the
// deletion durable. Caller holds s.mu.
func (s *Store) tombstoneObsoleteLocked(id uint64, namespace, key string) bool {
	if _, live := s.index[namespace][key]; live {
		return true
	}
	return len(s.order) > 0 && s.order[0] == id
}

// appendLocked writes an encoded record into the active segment,
// rotating first when it would overflow. Caller holds s.mu.
func (s *Store) appendLocked(buf []byte) (recordLoc, error) {
	if s.active == nil || (s.active.size > int64(segHeaderSize) && s.active.size+int64(len(buf)) > s.cfg.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			return recordLoc{}, err
		}
	}
	switch faultinject.Fire("spill.append") {
	case faultinject.Error:
		return recordLoc{}, fmt.Errorf("spill: append: %w", faultinject.ErrInjected)
	case faultinject.Short:
		// Torn write: half the record reaches the file but the append is
		// acknowledged in full — the page cache's lie when a machine dies
		// before writeback. The index points at a record whose tail is
		// zeros; reads fail its CRC and recovery truncates it away.
		off, err := s.active.appendBytes(buf[:len(buf)/2])
		if err != nil {
			return recordLoc{}, fmt.Errorf("spill: append: %w", err)
		}
		s.active.size = off + int64(len(buf))
		s.size += int64(len(buf))
		return recordLoc{seg: s.active.id, off: off, len: int32(len(buf))}, nil
	}
	off, err := s.active.appendBytes(buf)
	if err != nil {
		return recordLoc{}, fmt.Errorf("spill: append: %w", err)
	}
	s.size += int64(len(buf))
	return recordLoc{seg: s.active.id, off: off, len: int32(len(buf))}, nil
}

// rotateLocked seals the active segment and starts a fresh one. Sealing
// fsyncs the outgoing segment: it will never be written again, so this
// is the one point where durability is bought once per SegmentBytes
// instead of once per record.
func (s *Store) rotateLocked() error {
	if s.active != nil && s.active.f != nil {
		err := faultinject.FireErr("spill.sync")
		if err == nil {
			err = s.active.f.Sync()
		}
		if err != nil {
			s.m.WriteErrors.Inc()
			return fmt.Errorf("spill: sync sealed segment: %w", err)
		}
	}
	sg, err := createSegment(s.cfg.Dir, s.nextID)
	if err != nil {
		return err
	}
	s.nextID++
	s.segs[sg.id] = sg
	s.order = append(s.order, sg.id)
	s.active = sg
	s.size += sg.size
	return nil
}

// indexPutLocked points the index at a new record, marking any previous
// one stale.
func (s *Store) indexPutLocked(namespace, key string, loc recordLoc) {
	ns := s.index[namespace]
	if ns == nil {
		ns = make(map[string]recordLoc)
		s.index[namespace] = ns
	}
	if old, ok := ns[key]; ok {
		if osg := s.segs[old.seg]; osg != nil {
			osg.stale += int64(old.len)
			osg.live--
		}
		s.lives--
	}
	ns[key] = loc
	if sg := s.segs[loc.seg]; sg != nil {
		sg.live++
	}
	s.lives++
}

// indexDropLocked removes an index entry and accounts its record stale.
func (s *Store) indexDropLocked(namespace, key string, loc recordLoc) {
	ns := s.index[namespace]
	if ns == nil {
		return
	}
	delete(ns, key)
	if len(ns) == 0 {
		delete(s.index, namespace)
	}
	s.lives--
	if sg := s.segs[loc.seg]; sg != nil {
		sg.stale += int64(loc.len)
		sg.live--
	}
}

// evictLocked enforces the disk budget: above the high watermark
// (BudgetBytes), whole sealed segments are evicted oldest-first until
// usage reaches the low watermark. Live records in an evicted segment
// are lost — exactly the drop the spill tier otherwise prevents, now
// bounded by the budget instead of by DRAM.
func (s *Store) evictLocked() {
	if s.size <= s.cfg.BudgetBytes {
		return
	}
	low := int64(float64(s.cfg.BudgetBytes) * lowWatermark)
	for s.size > low {
		var victim *segment
		for _, id := range s.order {
			if sg := s.segs[id]; sg != nil && sg != s.active {
				victim = sg
				break
			}
		}
		if victim == nil {
			return // only the active segment remains
		}
		s.evictSegmentLocked(victim)
	}
}

// evictSegmentLocked drops one segment and every index entry into it.
func (s *Store) evictSegmentLocked(sg *segment) {
	dropped := 0
	for nsName, ns := range s.index {
		for k, loc := range ns {
			if loc.seg == sg.id {
				delete(ns, k)
				s.lives--
				dropped++
			}
		}
		if len(ns) == 0 {
			delete(s.index, nsName)
		}
	}
	s.size -= sg.size
	delete(s.segs, sg.id)
	s.dropOrderLocked(sg.id)
	sg.remove()
	s.m.EvictedSegments.Inc()
	s.m.EvictedRecords.Add(int64(dropped))
}

// dropOrderLocked removes an id from the ordered segment list.
func (s *Store) dropOrderLocked(id uint64) {
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}
