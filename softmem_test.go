package softmem

import (
	"errors"
	"testing"
)

// TestFacadeEndToEnd drives the whole system through the public facade
// only: machine pool, daemon, two SMAs, an SDS cache squeezed by a
// competing allocation, and the sentinel errors applications match on.
func TestFacadeEndToEnd(t *testing.T) {
	machine := NewPool(1024) // 4 MiB
	daemon := NewDaemon(DaemonConfig{TotalPages: 1024})

	smaA := New(Config{Machine: machine})
	revoked := 0
	cache := NewSoftLinkedList(smaA, "cache", BytesCodec{},
		func(v []byte) { revoked++ })
	smaA.AttachDaemon(daemon.Register("A", smaA))

	entry := make([]byte, 2048)
	for i := 0; i < 1500; i++ { // ~3 MiB
		if err := cache.PushBack(entry); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}

	smaB := New(Config{Machine: machine})
	scratch := NewSoftQueue(smaB, "scratch", BytesCodec{}, nil)
	smaB.AttachDaemon(daemon.Register("B", smaB))
	block := make([]byte, 4096)
	for i := 0; i < 512; i++ { // 2 MiB: forces reclamation from A
		if err := scratch.Push(block); err != nil {
			t.Fatalf("pressure alloc: %v", err)
		}
	}

	if revoked == 0 {
		t.Fatal("no cache entries revoked under pressure")
	}
	if smaA.Stats().DemandsServed == 0 {
		t.Fatal("A served no demands")
	}
	if v, ok, err := cache.Front(); err != nil || !ok || len(v) != 2048 {
		t.Fatalf("surviving entry: %v %v %d", err, ok, len(v))
	}
	if err := smaA.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeKVStoreAndErrors covers the KV re-export and the sentinel
// error identities (they must be the same values the internals return,
// or errors.Is in application code silently stops matching).
func TestFacadeKVStoreAndErrors(t *testing.T) {
	machine := NewPool(0)
	sma := New(Config{Machine: machine})
	kv := NewKV(sma, KVWithShards(4))
	if err := kv.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := kv.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if st := kv.Stats(); st.Shards != 4 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	kv.Close()
	sma.Close()

	// Sentinels: a budget-less SMA with an empty machine pool exhausts.
	tiny := NewPool(1)
	s2 := New(Config{Machine: tiny})
	ctx := s2.Register("x", 0, nil)
	if _, err := ctx.Alloc(PageSize); err != nil {
		t.Fatalf("first page: %v", err)
	}
	if _, err := ctx.Alloc(PageSize); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	ctx.Close()
	if _, err := ctx.Alloc(16); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	s2.Close()
	if machine.InUse() != 0 || tiny.InUse() != 0 {
		t.Fatalf("leak: %d %d", machine.InUse(), tiny.InUse())
	}
}
