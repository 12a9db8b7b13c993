package sds

import (
	"fmt"

	"softmem/internal/alloc"
	"softmem/internal/core"
)

// SoftBuffer is an append-only byte log stored in soft memory: the kind
// of trace/debug/metrics buffer services keep "just in case". Bytes are
// written at the end and addressed by absolute offset; under a
// reclamation demand the buffer drops its oldest chunks — the bytes a
// log can best afford to lose.
//
// It implements io.Writer; reads below Start() return ErrReclaimed.
// All methods are safe for concurrent use.
type SoftBuffer struct {
	ctx       *core.Context
	chunkSize int
	onReclaim func(lostBytes int64)

	// Guarded by the context's locked sections.
	chunks    []bufChunk // oldest first; chunks[i].start is its absolute offset
	size      int64      // total bytes ever written
	start     int64      // absolute offset of the oldest retained byte
	reclaimed int64
}

type bufChunk struct {
	ref   alloc.Ref
	start int64
	used  int
}

// BufferConfig configures a SoftBuffer.
type BufferConfig struct {
	// ChunkBytes is the allocation unit; writes fill chunks in order.
	// Default 64 KiB.
	ChunkBytes int
	// OnReclaim runs when pressure drops data, with the byte count lost.
	OnReclaim func(lostBytes int64)
	// Priority is the SDS reclamation priority (lower reclaimed first).
	Priority int
}

// NewSoftBuffer creates a buffer with its own isolated heap in sma.
func NewSoftBuffer(sma *core.SMA, name string, cfg BufferConfig) *SoftBuffer {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 64 << 10
	}
	b := &SoftBuffer{chunkSize: cfg.ChunkBytes, onReclaim: cfg.OnReclaim}
	b.ctx = sma.Register(name, cfg.Priority, reclaimerFunc(b.reclaim))
	return b
}

// Write appends p to the log. It satisfies io.Writer: a short write only
// happens when soft memory is exhausted mid-append.
func (b *SoftBuffer) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		// Ensure a tail chunk with room, allocating outside the locked
		// section (budget growth may need daemon round-trips).
		var need bool
		_ = b.ctx.Do(func(*core.Tx) error {
			need = len(b.chunks) == 0 || b.chunks[len(b.chunks)-1].used == b.chunkSize
			return nil
		})
		if need {
			ref, err := b.ctx.Alloc(b.chunkSize)
			if err != nil {
				return written, err
			}
			if err := b.ctx.Do(func(tx *core.Tx) error {
				b.chunks = append(b.chunks, bufChunk{ref: ref, start: b.size})
				return nil
			}); err != nil {
				return written, err
			}
		}
		err := b.ctx.Do(func(tx *core.Tx) error {
			tail := &b.chunks[len(b.chunks)-1]
			room := b.chunkSize - tail.used
			n := len(p) - written
			if n > room {
				n = room
			}
			if err := tx.Write(tail.ref, p[written:written+n], tail.used); err != nil {
				return err
			}
			tail.used += n
			b.size += int64(n)
			written += n
			return nil
		})
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadAt copies len(p) bytes starting at absolute offset off. It returns
// ErrReclaimed when any requested byte has been revoked or discarded,
// and an error when the range extends past the end of the log.
func (b *SoftBuffer) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := b.ctx.Do(func(tx *core.Tx) error {
		if off < b.start {
			return fmt.Errorf("%w: offset %d below retained start %d", ErrReclaimed, off, b.start)
		}
		if off+int64(len(p)) > b.size {
			return fmt.Errorf("sds: read [%d,%d) past end %d", off, off+int64(len(p)), b.size)
		}
		for _, c := range b.chunks {
			if n == len(p) {
				break
			}
			cEnd := c.start + int64(c.used)
			cur := off + int64(n)
			if cur >= cEnd || cur < c.start {
				continue
			}
			chunkOff := int(cur - c.start)
			want := c.used - chunkOff
			if want > len(p)-n {
				want = len(p) - n
			}
			if err := tx.Read(c.ref, p[n:n+want], chunkOff); err != nil {
				return err
			}
			n += want
		}
		return nil
	})
	return n, err
}

// Size returns the total bytes ever written.
func (b *SoftBuffer) Size() int64 {
	var s int64
	_ = b.ctx.Do(func(*core.Tx) error {
		s = b.size
		return nil
	})
	return s
}

// Start returns the absolute offset of the oldest retained byte; bytes
// below it were reclaimed or discarded.
func (b *SoftBuffer) Start() int64 {
	var s int64
	_ = b.ctx.Do(func(*core.Tx) error {
		s = b.start
		return nil
	})
	return s
}

// Retained returns the bytes currently held in soft memory.
func (b *SoftBuffer) Retained() int64 { return b.Size() - b.Start() }

// Discard drops whole chunks entirely below offset upTo, voluntarily
// returning their memory (an application-driven trim, cheaper than
// waiting for pressure).
func (b *SoftBuffer) Discard(upTo int64) error {
	return b.ctx.Do(func(tx *core.Tx) error {
		for len(b.chunks) > 0 {
			c := b.chunks[0]
			end := c.start + int64(c.used)
			if end > upTo || c.used < b.chunkSize {
				break // keep partial tail and anything beyond upTo
			}
			if err := tx.Free(c.ref); err != nil {
				return err
			}
			b.chunks = b.chunks[1:]
			b.start = end
		}
		return nil
	})
}

// ReclaimedBytes returns the bytes dropped under memory pressure.
func (b *SoftBuffer) ReclaimedBytes() int64 {
	var n int64
	_ = b.ctx.Do(func(*core.Tx) error {
		n = b.reclaimed
		return nil
	})
	return n
}

// Context exposes the buffer's SDS context.
func (b *SoftBuffer) Context() *core.Context { return b.ctx }

// Close frees the buffer's heap; the buffer must not be used afterwards.
func (b *SoftBuffer) Close() { b.ctx.Close() }

// reclaim drops whole chunks oldest-first until quota bytes are freed.
// The partially-filled tail chunk is surrendered last. Runs under the
// Context lock.
func (b *SoftBuffer) reclaim(tx *core.Tx, quota int) int {
	freed := 0
	var lost int64
	for len(b.chunks) > 0 && freed < quota {
		c := b.chunks[0]
		size, err := tx.SlotSize(c.ref)
		if err != nil {
			b.chunks = b.chunks[1:]
			continue
		}
		if err := tx.Free(c.ref); err == nil {
			freed += size
		}
		b.chunks = b.chunks[1:]
		b.start = c.start + int64(c.used)
		lost += int64(c.used)
	}
	b.reclaimed += lost
	if lost > 0 && b.onReclaim != nil {
		b.onReclaim(lost)
	}
	return freed
}
