package core

import (
	"bytes"
	"errors"
	"testing"

	"softmem/internal/pages"
)

// Every public Context operation on the heap's contents says ErrClosed
// after Close: the heap was reset under the caller's refs, and that is
// not the caller holding a stale handle.
func TestEveryOperationAfterCloseSaysClosed(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(0)})
	ctx := s.Register("test", 0, nil)
	ref, err := ctx.AllocData([]byte("soft"))
	if err != nil {
		t.Fatal(err)
	}
	owned := ctx.Own()
	ctx.Close()

	buf := make([]byte, 1)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"Alloc", func() error { _, err := ctx.Alloc(8); return err }},
		{"AllocData", func() error { _, err := ctx.AllocData(buf); return err }},
		{"Read", func() error { return ctx.Read(ref, buf, 0) }},
		{"Write", func() error { return ctx.Write(ref, buf, 0) }},
		{"ReadAll", func() error { _, err := ctx.ReadAll(ref); return err }},
		{"Size", func() error { _, err := ctx.Size(ref); return err }},
		{"Free", func() error { return ctx.Free(ref) }},
		{"Pin", func() error { _, err := ctx.Pin(ref); return err }},
		{"Do", func() error { return ctx.Do(func(*Tx) error { return nil }) }},
		{"Owned.Acquire", owned.Acquire},
		{"Owned.Yield", owned.Yield},
		{"Owned.AllocData", func() error { _, err := owned.AllocData(buf); return err }},
	} {
		if err := c.op(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", c.name, err)
		}
	}
	if ctx.Live(ref) {
		t.Error("Live after Close = true")
	}
	if owned.TryAcquire() || owned.Held() {
		t.Error("an Owned handle took the lock of a closed context")
	}
	// What is left works and says nothing of the heap's contents.
	ctx.EnableEpochRetire()
	ctx.Close()
	if st := ctx.HeapStats(); st.LiveAllocs != 0 || st.PagesHeld != 0 {
		t.Errorf("HeapStats after Close = %+v", st)
	}
}

// The Go allocations of the allocator's own hot path are pinned: a
// ReadAll is the copy it returns, exactly its size (not rounded up to a
// size class, whose tail an append would clear), and nothing else, and an
// AllocData/Free pair on a page that stays carved costs none at all.
func TestContextHotPathAllocs(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(0)})
	ctx := s.Register("test", 0, nil)
	data := bytes.Repeat([]byte{0xA5}, 1000)
	keep, err := ctx.AllocData(data) // keeps the class's page from emptying
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		got, err := ctx.ReadAll(keep)
		if err != nil || len(got) != len(data) {
			t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
		}
	}); n != 1 {
		t.Errorf("ReadAll makes %.0f Go allocations, want exactly 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		ref, err := ctx.AllocData(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Free(ref); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AllocData+Free makes %.0f Go allocations in steady state, want 0", n)
	}
	if got, err := ctx.ReadAll(keep); err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Fatalf("ReadAll after the churn: %d bytes of capacity %d, %v", len(got), cap(got), err)
	}
	span, err := ctx.AllocData(bytes.Repeat(data, 9)) // three pages
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = ctx.ReadAll(span) }); n != 1 {
		t.Errorf("ReadAll of a span makes %.0f Go allocations, want exactly 1", n)
	}
}
