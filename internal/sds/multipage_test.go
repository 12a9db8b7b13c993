package sds

import (
	"bytes"
	"testing"

	"softmem/internal/pages"
)

// Values larger than one page land in multi-page spans, which
// Tx.Bytes refuses — every SDS read path must go through the
// span-aware Tx.Append/readAlloc instead. Regression: these reads
// used to fail with "use ReadAt/WriteAt for multi-page allocation".
func multiPageValue() []byte {
	v := make([]byte, 3*pages.Size+17)
	for i := range v {
		v[i] = byte(i * 31)
	}
	return v
}

func TestHashTableMultiPageValue(t *testing.T) {
	sma := newSMA()
	var reclaimed []byte
	ht := NewSoftHashTable[string](sma, "mp", HashTableConfig[string]{
		OnReclaim: func(_ string, v []byte) { reclaimed = v },
	})
	want := multiPageValue()
	if err := ht.Put("big", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ht.Get("big")
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get: ok=%v err=%v len=%d want %d", ok, err, len(got), len(want))
	}
	scratch := append([]byte(nil), "prefix"...)
	got, ok, err = ht.GetAppend(scratch, "big")
	if err != nil || !ok || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("GetAppend: ok=%v err=%v len=%d", ok, err, len(got))
	}
	ranged := false
	if err := ht.Range(func(k string, v []byte) bool {
		ranged = k == "big" && bytes.Equal(v, want)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !ranged {
		t.Fatal("Range did not yield the multi-page value")
	}
	// Reclaim must hand the full value to the callback.
	if n := sma.HandleDemand(4); n == 0 {
		t.Fatal("HandleDemand freed nothing")
	}
	if !bytes.Equal(reclaimed, want) {
		t.Fatalf("OnReclaim value len=%d want %d", len(reclaimed), len(want))
	}
}

func TestQueueMultiPageValue(t *testing.T) {
	sma := newSMA()
	q := NewSoftQueue[[]byte](sma, "mp", BytesCodec{}, nil)
	want := multiPageValue()
	if err := q.Push(want); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := q.Peek(); err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("Peek: ok=%v err=%v len=%d", ok, err, len(v))
	}
	if v, ok, err := q.Pop(); err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("Pop: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

func TestListMultiPageValue(t *testing.T) {
	sma := newSMA()
	l := NewSoftLinkedList[[]byte](sma, "mp", BytesCodec{}, nil)
	want := multiPageValue()
	if err := l.PushBack(want); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := l.Front(); err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("Front: ok=%v err=%v len=%d", ok, err, len(v))
	}
	seen := false
	if err := l.Each(func(v []byte) bool {
		seen = bytes.Equal(v, want)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("Each did not yield the multi-page value")
	}
}
