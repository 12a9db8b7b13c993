package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/pages"
)

// raceSDS is a concurrency-safe variant of stackSDS: every mutation of
// the refs index happens inside the context's locked sections (Do or
// Reclaim), which is exactly the discipline real SDSs follow.
type raceSDS struct {
	ctx  *Context
	refs []alloc.Ref
}

func (s *raceSDS) Reclaim(tx *Tx, bytes int) int {
	freed := 0
	for len(s.refs) > 0 && freed < bytes {
		ref := s.refs[0]
		s.refs = s.refs[1:]
		size, err := tx.SlotSize(ref)
		if err != nil {
			continue
		}
		if err := tx.Free(ref); err == nil {
			freed += size
		}
	}
	return freed
}

// push allocates and indexes one entry; exhaustion is tolerated (the
// demand goroutine may have shrunk the budget).
func (s *raceSDS) push(t *testing.T, size int) {
	t.Helper()
	ref, err := s.ctx.Alloc(size)
	if err != nil {
		if errors.Is(err, ErrExhausted) {
			return
		}
		t.Errorf("push: %v", err)
		return
	}
	if err := s.ctx.Do(func(tx *Tx) error {
		s.refs = append(s.refs, ref)
		return nil
	}); err != nil {
		t.Errorf("index: %v", err)
	}
}

// readSome reads a live entry through the locked section.
func (s *raceSDS) readSome(t *testing.T, rng *rand.Rand, buf []byte) {
	t.Helper()
	if err := s.ctx.Do(func(tx *Tx) error {
		if len(s.refs) == 0 {
			return nil
		}
		ref := s.refs[rng.Intn(len(s.refs))]
		if !tx.Live(ref) {
			return nil
		}
		size, err := tx.Size(ref)
		if err != nil {
			return nil
		}
		if size > len(buf) {
			size = len(buf)
		}
		return tx.Read(ref, buf[:size], 0)
	}); err != nil {
		t.Errorf("read: %v", err)
	}
}

// freeOldest frees the oldest indexed entry, if any.
func (s *raceSDS) freeOldest(t *testing.T) {
	t.Helper()
	if err := s.ctx.Do(func(tx *Tx) error {
		for len(s.refs) > 0 {
			ref := s.refs[0]
			s.refs = s.refs[1:]
			if tx.Live(ref) {
				return tx.Free(ref)
			}
		}
		return nil
	}); err != nil {
		t.Errorf("free: %v", err)
	}
}

// TestRaceManyHeapsUnderDemand is the concurrency smoke test behind the
// per-Context locking redesign: many goroutines allocate, read and
// free across several SDS heaps — some private, one shared — while a
// background goroutine hammers HandleDemand and another continuously
// verifies accounting invariants. Run with -race.
func TestRaceManyHeapsUnderDemand(t *testing.T) {
	const (
		workers = 8
		ops     = 1500
	)
	machine := pages.NewPool(0)
	daemon := &fakeDaemon{total: 1 << 20}
	s := New(Config{Machine: machine, Daemon: daemon})

	shared := &raceSDS{}
	shared.ctx = s.Register("shared", 0, shared)

	privs := make([]*raceSDS, workers)
	for i := range privs {
		privs[i] = &raceSDS{}
		privs[i].ctx = s.Register("priv", 1+i, privs[i])
	}

	var squeezed atomic.Int64
	s.OnPressure(func(ev PressureEvent) { squeezed.Add(int64(ev.ReleasedPages)) })

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the daemon squeezing the process
		defer bg.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.HandleDemand(1 + rng.Intn(8))
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // a health checker taking consistent snapshots
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.VerifyIntegrity(); err != nil {
				t.Errorf("integrity under churn: %v", err)
				return
			}
			_ = s.Stats()
			_ = s.Contexts()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 2048)
			mine := privs[w]
			for i := 0; i < ops; i++ {
				sds := mine
				if rng.Intn(3) == 0 {
					sds = shared
				}
				switch rng.Intn(9) {
				case 0, 1, 2, 3:
					sds.push(t, 64+rng.Intn(1984))
				case 4, 5, 6:
					sds.readSome(t, rng, buf)
				case 7:
					sds.freeOldest(t)
				case 8:
					_ = s.FootprintBytes()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	if err := s.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after churn: %v", err)
	}
	if got, want := machine.InUse(), s.Stats().UsedPages; got != want {
		t.Fatalf("machine conservation: pool in use %d, SMA used %d", got, want)
	}
	s.Close()
	if machine.InUse() != 0 {
		t.Fatalf("pages leaked after close: %d", machine.InUse())
	}
}

// TestRaceAllocAcrossContextsNoDaemon exercises the standalone ledger
// (no budget checks) with pure parallel alloc/free churn.
func TestRaceAllocAcrossContextsNoDaemon(t *testing.T) {
	machine := pages.NewPool(0)
	s := New(Config{Machine: machine})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := s.Register("w", w, nil)
			var refs []alloc.Ref
			for i := 0; i < 2000; i++ {
				ref, err := ctx.Alloc(256)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				refs = append(refs, ref)
				if len(refs) > 64 {
					if err := ctx.Free(refs[0]); err != nil {
						t.Errorf("free: %v", err)
						return
					}
					refs = refs[1:]
				}
			}
			ctx.Close()
		}(w)
	}
	wg.Wait()
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if machine.InUse() != 0 {
		t.Fatalf("pages leaked: %d", machine.InUse())
	}
}
