package sds

import (
	"errors"
	"testing"
	"testing/quick"

	"softmem/internal/core"
	"softmem/internal/pages"
)

func newSMA() *core.SMA {
	return core.New(core.Config{Machine: pages.NewPool(0)})
}

func TestCodecRoundtrips(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		c := BytesCodec{}
		in := []byte{1, 2, 3}
		enc, _ := c.Encode(in)
		out, err := c.Decode(enc)
		if err != nil || string(out) != string(in) {
			t.Fatalf("roundtrip = %v, %v", out, err)
		}
		// Decode must copy.
		enc[0] = 99
		if out[0] == 99 {
			t.Fatal("decoded slice aliases input")
		}
	})
	t.Run("string", func(t *testing.T) {
		c := StringCodec{}
		enc, _ := c.Encode("héllo")
		out, err := c.Decode(enc)
		if err != nil || out != "héllo" {
			t.Fatalf("roundtrip = %q, %v", out, err)
		}
	})
	t.Run("uint64", func(t *testing.T) {
		c := Uint64Codec{}
		f := func(v uint64) bool {
			enc, err := c.Encode(v)
			if err != nil {
				return false
			}
			out, err := c.Decode(enc)
			return err == nil && out == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode([]byte{1, 2}); err == nil {
			t.Fatal("short decode did not error")
		}
	})
	t.Run("json", func(t *testing.T) {
		type point struct{ X, Y int }
		c := JSONCodec[point]{}
		enc, err := c.Encode(point{3, 4})
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode(enc)
		if err != nil || out != (point{3, 4}) {
			t.Fatalf("roundtrip = %+v, %v", out, err)
		}
	})
}

func TestListPushPopFIFOAndLIFO(t *testing.T) {
	l := NewSoftLinkedList(newSMA(), "l", Uint64Codec{}, nil)
	defer l.Close()
	for i := uint64(0); i < 10; i++ {
		if err := l.PushBack(i); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	v, ok, err := l.PopFront()
	if err != nil || !ok || v != 0 {
		t.Fatalf("PopFront = %d, %v, %v", v, ok, err)
	}
	v, ok, _ = l.PopBack()
	if !ok || v != 9 {
		t.Fatalf("PopBack = %d, %v", v, ok)
	}
	if l.Len() != 8 {
		t.Fatalf("Len = %d after pops", l.Len())
	}
}

func TestListPushFront(t *testing.T) {
	l := NewSoftLinkedList(newSMA(), "l", Uint64Codec{}, nil)
	defer l.Close()
	l.PushBack(2)
	l.PushFront(1)
	l.PushBack(3)
	var got []uint64
	if err := l.Each(func(v uint64) bool {
		got = append(got, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
}

func TestListEmptyPops(t *testing.T) {
	l := NewSoftLinkedList(newSMA(), "l", Uint64Codec{}, nil)
	defer l.Close()
	if _, ok, err := l.PopFront(); ok || err != nil {
		t.Fatal("PopFront on empty misbehaved")
	}
	if _, ok, err := l.PopBack(); ok || err != nil {
		t.Fatal("PopBack on empty misbehaved")
	}
	if _, ok, err := l.Front(); ok || err != nil {
		t.Fatal("Front on empty misbehaved")
	}
}

func TestListReclaimOldestFirstEvenWithPushFront(t *testing.T) {
	sma := newSMA()
	var reclaimed []uint64
	l := NewSoftLinkedList(sma, "l", Uint64Codec{}, func(v uint64) {
		reclaimed = append(reclaimed, v)
	})
	defer l.Close()
	// Insert 0..7 alternating front/back: ages are 0,1,2,... regardless
	// of position.
	for i := uint64(0); i < 8; i++ {
		var err error
		if i%2 == 0 {
			err = l.PushBack(i)
		} else {
			err = l.PushFront(i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each element is 8 bytes → 16-byte class; a page holds 256. All 8
	// elements live on one page, so reclaiming 1 page frees all 8 in age
	// order.
	released := sma.HandleDemand(1)
	if released != 1 {
		t.Fatalf("released %d pages", released)
	}
	if len(reclaimed) != 8 {
		t.Fatalf("reclaimed %d elements, want 8", len(reclaimed))
	}
	for i, v := range reclaimed {
		if v != uint64(i) {
			t.Fatalf("reclaim order %v: not oldest-first", reclaimed)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after full reclaim", l.Len())
	}
	if l.Reclaimed() != 8 {
		t.Fatalf("Reclaimed() = %d", l.Reclaimed())
	}
}

func TestListPartialReclaimKeepsNewest(t *testing.T) {
	sma := newSMA()
	l := NewSoftLinkedList(sma, "l", BytesCodec{}, nil)
	defer l.Close()
	// The paper's example: 2 KiB elements, two per 4 KiB page; a 12 KiB
	// (3-page) demand frees the six oldest elements.
	payload := make([]byte, 2048)
	for i := 0; i < 10; i++ {
		payload[0] = byte(i)
		if err := l.PushBack(payload); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(3); released != 3 {
		t.Fatalf("released %d pages, want 3", released)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (six oldest freed)", l.Len())
	}
	v, ok, err := l.Front()
	if err != nil || !ok || v[0] != 6 {
		t.Fatalf("front after reclaim = %v, %v, %v; want element 6", v[0], ok, err)
	}
}

func TestListSurvivesInterleavedUse(t *testing.T) {
	sma := newSMA()
	l := NewSoftLinkedList(sma, "l", Uint64Codec{}, nil)
	defer l.Close()
	for i := uint64(0); i < 100; i++ {
		l.PushBack(i)
		if i%10 == 9 {
			sma.HandleDemand(1)
		}
		if i%7 == 0 {
			l.PopFront()
		}
	}
	// Whatever survived must decode correctly and count consistently.
	n := 0
	if err := l.Each(func(uint64) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != l.Len() {
		t.Fatalf("Each saw %d, Len says %d", n, l.Len())
	}
}

func TestHashTablePutGetDelete(t *testing.T) {
	sma := newSMA()
	ht := NewSoftHashTable[string](sma, "ht", HashTableConfig[string]{})
	defer ht.Close()
	if err := ht.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ht.Get("k1")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	// Replace.
	if err := ht.Put("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = ht.Get("k1")
	if string(v) != "v2" {
		t.Fatalf("after replace Get = %q", v)
	}
	if ht.Len() != 1 {
		t.Fatalf("Len = %d after replace", ht.Len())
	}
	removed, err := ht.Delete("k1")
	if err != nil || !removed {
		t.Fatalf("Delete = %v, %v", removed, err)
	}
	if _, ok, _ := ht.Get("k1"); ok {
		t.Fatal("key present after delete")
	}
	if removed, _ := ht.Delete("k1"); removed {
		t.Fatal("second delete reported removal")
	}
}

func TestHashTableGetCopies(t *testing.T) {
	ht := NewSoftHashTable[string](newSMA(), "ht", HashTableConfig[string]{})
	defer ht.Close()
	ht.Put("k", []byte("abc"))
	v, _, _ := ht.Get("k")
	v[0] = 'X'
	v2, _, _ := ht.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get returned aliased memory")
	}
}

func TestHashTableReclaimOldest(t *testing.T) {
	sma := newSMA()
	var evicted []string
	ht := NewSoftHashTable[string](sma, "ht", HashTableConfig[string]{
		Policy: EvictOldest,
		OnReclaim: func(k string, v []byte) {
			evicted = append(evicted, k)
		},
	})
	defer ht.Close()
	val := make([]byte, 2048) // two entries per page
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range keys {
		if err := ht.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(1); released != 1 {
		t.Fatalf("released %d", released)
	}
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("evicted %v, want [a b]", evicted)
	}
	if _, ok, _ := ht.Get("a"); ok {
		t.Fatal("reclaimed key still readable")
	}
	if _, ok, _ := ht.Get("f"); !ok {
		t.Fatal("surviving key lost")
	}
	if ht.Len() != 4 {
		t.Fatalf("Len = %d", ht.Len())
	}
	if ht.Reclaimed() != 2 {
		t.Fatalf("Reclaimed = %d", ht.Reclaimed())
	}
}

func TestHashTableReclaimLRU(t *testing.T) {
	sma := newSMA()
	var evicted []string
	ht := NewSoftHashTable[string](sma, "ht", HashTableConfig[string]{
		Policy: EvictLRU,
		OnReclaim: func(k string, _ []byte) {
			evicted = append(evicted, k)
		},
	})
	defer ht.Close()
	val := make([]byte, 2048)
	for _, k := range []string{"a", "b", "c", "d"} {
		ht.Put(k, val)
	}
	// Touch a and b; c and d become least recently used.
	ht.Get("a")
	ht.Get("b")
	if released := sma.HandleDemand(1); released != 1 {
		t.Fatalf("released %d", released)
	}
	if len(evicted) != 2 || evicted[0] != "c" || evicted[1] != "d" {
		t.Fatalf("evicted %v, want [c d]", evicted)
	}
}

func TestHashTableKeyAccounting(t *testing.T) {
	sma := newSMA()
	ht := NewSoftHashTable[string](sma, "ht", HashTableConfig[string]{
		KeyBytes: func(k string) int { return len(k) + 16 },
	})
	defer ht.Close()
	ht.Put("hello", make([]byte, 2048))
	if got := sma.TraditionalBytes(); got != 21 {
		t.Fatalf("traditional = %d, want 21", got)
	}
	ht.Put("hello", make([]byte, 2048)) // replace: no double count
	if got := sma.TraditionalBytes(); got != 21 {
		t.Fatalf("traditional = %d after replace, want 21", got)
	}
	ht.Delete("hello")
	if got := sma.TraditionalBytes(); got != 0 {
		t.Fatalf("traditional = %d after delete, want 0", got)
	}
	// Reclamation also cleans key accounting (the paper's "cleans up
	// associated traditional memory" path).
	ht.Put("world", make([]byte, 4096))
	sma.HandleDemand(1)
	if got := sma.TraditionalBytes(); got != 0 {
		t.Fatalf("traditional = %d after reclaim, want 0", got)
	}
}

func TestHashTableRange(t *testing.T) {
	ht := NewSoftHashTable[int](newSMA(), "ht", HashTableConfig[int]{})
	defer ht.Close()
	for i := 0; i < 5; i++ {
		ht.Put(i, []byte{byte(i)})
	}
	seen := map[int]byte{}
	err := ht.Range(func(k int, v []byte) bool {
		seen[k] = v[0]
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("Range saw %d entries", len(seen))
	}
	for k, v := range seen {
		if v != byte(k) {
			t.Fatalf("seen[%d] = %d", k, v)
		}
	}
	// Early stop.
	n := 0
	ht.Range(func(int, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range after false continued: %d", n)
	}
}

func TestHashTableContains(t *testing.T) {
	ht := NewSoftHashTable[string](newSMA(), "ht", HashTableConfig[string]{Policy: EvictLRU})
	defer ht.Close()
	ht.Put("x", []byte{1})
	if !ht.Contains("x") || ht.Contains("y") {
		t.Fatal("Contains wrong")
	}
}

func TestArraySetGetClear(t *testing.T) {
	a, err := NewSoftArray(newSMA(), "a", Uint64Codec{}, ArrayConfig[uint64]{Length: 16, ElemSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != 16 || a.Count() != 0 || !a.Valid() {
		t.Fatal("fresh array state wrong")
	}
	if err := a.Set(3, 42); err != nil {
		t.Fatal(err)
	}
	v, ok, err := a.Get(3)
	if err != nil || !ok || v != 42 {
		t.Fatalf("Get = %d, %v, %v", v, ok, err)
	}
	if _, ok, _ := a.Get(4); ok {
		t.Fatal("unset slot reported present")
	}
	if a.Count() != 1 {
		t.Fatalf("Count = %d", a.Count())
	}
	if err := a.Clear(3); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get(3); ok {
		t.Fatal("cleared slot present")
	}
}

func TestArrayBounds(t *testing.T) {
	a, _ := NewSoftArray(newSMA(), "a", Uint64Codec{}, ArrayConfig[uint64]{Length: 4, ElemSize: 8})
	defer a.Close()
	if err := a.Set(-1, 0); err == nil {
		t.Fatal("Set(-1) did not error")
	}
	if _, _, err := a.Get(4); err == nil {
		t.Fatal("Get(4) did not error")
	}
	if err := a.Clear(99); err == nil {
		t.Fatal("Clear(99) did not error")
	}
}

func TestArrayElemSizeEnforced(t *testing.T) {
	a, _ := NewSoftArray(newSMA(), "a", BytesCodec{}, ArrayConfig[[]byte]{Length: 4, ElemSize: 8})
	defer a.Close()
	if err := a.Set(0, make([]byte, 9)); err == nil {
		t.Fatal("oversized element accepted")
	}
}

func TestArrayConfigValidation(t *testing.T) {
	if _, err := NewSoftArray(newSMA(), "a", Uint64Codec{}, ArrayConfig[uint64]{Length: 0, ElemSize: 8}); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestArrayReclaimAllOrNothing(t *testing.T) {
	sma := newSMA()
	var lost []int
	a, err := NewSoftArray(sma, "a", Uint64Codec{}, ArrayConfig[uint64]{
		Length: 1024, ElemSize: 8, // 8 KiB block = 2 pages
		OnReclaim: func(i int, v uint64) { lost = append(lost, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Set(0, 10)
	a.Set(512, 20)
	// Even a one-page demand surrenders the whole block.
	if released := sma.HandleDemand(1); released != 2 {
		t.Fatalf("released %d pages, want 2 (whole block)", released)
	}
	if a.Valid() {
		t.Fatal("array valid after reclamation")
	}
	if len(lost) != 2 || lost[0] != 0 || lost[1] != 512 {
		t.Fatalf("callback saw %v", lost)
	}
	if _, _, err := a.Get(0); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("Get after reclaim = %v, want ErrReclaimed", err)
	}
	if err := a.Set(0, 1); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("Set after reclaim = %v, want ErrReclaimed", err)
	}
	if a.Reclaims() != 1 {
		t.Fatalf("Reclaims = %d", a.Reclaims())
	}
	// Rebuild restores an empty, usable array.
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if !a.Valid() || a.Count() != 0 {
		t.Fatal("rebuilt array state wrong")
	}
	if err := a.Set(1, 7); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewSoftQueue(newSMA(), "q", StringCodec{}, nil)
	defer q.Close()
	for _, s := range []string{"a", "b", "c"} {
		if err := q.Push(s); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok, _ := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	for _, want := range []string{"a", "b", "c"} {
		v, ok, err := q.Pop()
		if err != nil || !ok || v != want {
			t.Fatalf("Pop = %q, %v, %v; want %q", v, ok, err, want)
		}
	}
	if _, ok, _ := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
}

func TestQueueReclaimDropsOldest(t *testing.T) {
	sma := newSMA()
	var dropped []uint64
	q := NewSoftQueue(sma, "q", Uint64Codec{}, func(v uint64) { dropped = append(dropped, v) })
	defer q.Close()
	for i := uint64(0); i < 512; i++ { // two pages of 16-byte slots
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(1); released != 1 {
		t.Fatalf("released %d", released)
	}
	if len(dropped) != 256 {
		t.Fatalf("dropped %d elements, want 256", len(dropped))
	}
	for i, v := range dropped {
		if v != uint64(i) {
			t.Fatalf("drop order wrong at %d: %d", i, v)
		}
	}
	if v, ok, _ := q.Pop(); !ok || v != 256 {
		t.Fatalf("first survivor = %d, %v; want 256", v, ok)
	}
	if q.Reclaimed() != 256 {
		t.Fatalf("Reclaimed = %d", q.Reclaimed())
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewSoftQueue(newSMA(), "q", Uint64Codec{}, nil)
	defer q.Close()
	for i := uint64(0); i < 200; i++ {
		q.Push(i)
	}
	for i := 0; i < 150; i++ {
		if _, ok, err := q.Pop(); !ok || err != nil {
			t.Fatal("pop failed during compaction churn")
		}
	}
	if q.Len() != 50 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok, _ := q.Pop(); !ok || v != 150 {
		t.Fatalf("Pop = %d after compaction", v)
	}
}

func TestEvictPolicyString(t *testing.T) {
	if EvictOldest.String() != "oldest" || EvictLRU.String() != "lru" || EvictPolicy(9).String() != "unknown" {
		t.Fatal("policy names wrong")
	}
}

// Property: under any sequence of demands, the list never exposes a
// reclaimed element and Len matches Each.
func TestListConsistencyUnderDemandProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		sma := newSMA()
		l := NewSoftLinkedList(sma, "l", Uint64Codec{}, nil)
		defer l.Close()
		next := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				if err := l.PushBack(next); err != nil {
					return false
				}
				next++
			case 2:
				if _, _, err := l.PopFront(); err != nil {
					return false
				}
			case 3:
				sma.HandleDemand(int(op%3) + 1)
			}
		}
		n := 0
		if err := l.Each(func(uint64) bool { n++; return true }); err != nil {
			return false
		}
		return n == l.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestListReclaimLoopRegression(t *testing.T) {
	// The list reclaims oldest-first and satisfies the demand.
	sma := newSMA()
	l := NewSoftLinkedList(sma, "l", BytesCodec{}, nil)
	defer l.Close()
	payload := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		payload[0] = byte(i)
		l.PushBack(payload)
	}
	if released := sma.HandleDemand(2); released != 2 {
		t.Fatalf("released %d", released)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	v, ok, err := l.Front()
	if err != nil || !ok || v[0] != 2 {
		t.Fatalf("front = %v, %v, %v; want element 2", v, ok, err)
	}
}

// Property: the queue preserves FIFO order across arbitrary push/pop/
// reclaim interleavings — whatever survives pops in increasing order.
func TestQueueFIFOUnderReclaimProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		sma := newSMA()
		q := NewSoftQueue(sma, "q", Uint64Codec{}, nil)
		defer q.Close()
		next := uint64(0)
		last := int64(-1)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				if err := q.Push(next); err != nil {
					return false
				}
				next++
			case 2:
				v, ok, err := q.Pop()
				if err != nil {
					return false
				}
				if ok {
					if int64(v) <= last {
						return false // order violated
					}
					last = int64(v)
				}
			case 3:
				sma.HandleDemand(int(op%3) + 1)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a SoftArray is always either fully valid (all set slots
// readable) or fully reclaimed (every access ErrReclaimed), and Rebuild
// restores it — never a partial state.
func TestArrayAllOrNothingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		sma := newSMA()
		a, err := NewSoftArray(sma, "a", Uint64Codec{}, ArrayConfig[uint64]{Length: 64, ElemSize: 8})
		if err != nil {
			return false
		}
		defer a.Close()
		set := map[int]uint64{}
		for _, op := range ops {
			i := int(op % 64)
			switch op % 5 {
			case 0, 1:
				if !a.Valid() {
					continue
				}
				if err := a.Set(i, uint64(op)); err != nil {
					return false
				}
				set[i] = uint64(op)
			case 2:
				sma.HandleDemand(1)
				if !a.Valid() {
					set = map[int]uint64{}
				}
			case 3:
				if !a.Valid() {
					if err := a.Rebuild(); err != nil {
						return false
					}
				}
			case 4:
				v, ok, err := a.Get(i)
				if a.Valid() {
					want, present := set[i]
					if err != nil || ok != present {
						return false
					}
					if present && v != want {
						return false
					}
				} else if !errors.Is(err, ErrReclaimed) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
