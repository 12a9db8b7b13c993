package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

	"softmem/internal/trace"
)

// Op kinds of a pregenerated stream.
const (
	opRead uint8 = iota
	opWrite
	opFree // sma_churn only
)

// op is one pregenerated driver operation. key is a key index on the
// kvstore workloads and a live-set selector on sma_churn.
type op struct {
	key  uint32
	size uint16
	kind uint8
}

// streamHash folds the op rings of every driver into one FNV-1a value, the
// fingerprint the determinism test compares across runs and seeds.
func streamHash(rings ...[]op) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, ring := range rings {
		for _, o := range ring {
			mix(byte(o.key))
			mix(byte(o.key >> 8))
			mix(byte(o.key >> 16))
			mix(byte(o.key >> 24))
			mix(byte(o.size))
			mix(byte(o.size >> 8))
			mix(o.kind)
		}
	}
	return h
}

// keyOfRank scatters popularity ranks over the key space [0, nKeys) with
// an odd multiplier coprime with every key count used, so that a key's
// popularity is independent of its index and of which shard it hashes to.
func keyOfRank(rank uint64, nKeys int) uint32 {
	return uint32(rank * 2654435761 % uint64(nKeys))
}

// zipfRing draws n ops over keys [0, nKeys): Zipf(s) ranks scattered by
// keyOfRank, readFrac of them reads, sizes uniform in [minSize, maxSize].
func zipfRing(rng *rand.Rand, n, nKeys int, s, readFrac float64, minSize, maxSize int) []op {
	z := rand.NewZipf(rng, s, 1, uint64(nKeys-1))
	ring := make([]op, n)
	for i := range ring {
		o := op{
			key:  keyOfRank(z.Uint64(), nKeys),
			size: uint16(minSize + rng.Intn(maxSize-minSize+1)),
		}
		if rng.Float64() >= readFrac {
			o.kind = opWrite
		}
		ring[i] = o
	}
	return ring
}

// keyNames renders the key table once so fmt stays out of the timed region.
func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = trace.Key(uint64(i))
	}
	return keys
}

// Values are self-describing so that every read can be verified without a
// shadow copy: key ‖ version ‖ checksum, then filler taken from a fixed
// pattern at an offset the checksum picks. A revoked value must read as a
// miss; anything that comes back must pass checkValue.
const (
	valueHeader = 16
	maxValue    = 4096
)

var pattern = func() []byte {
	p := make([]byte, 2*maxValue)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(p[i:], mix64(x))
	}
	return p
}()

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func valueSum(key uint64, version uint32, size int) uint32 {
	return uint32(mix64(key ^ uint64(version)<<32 ^ uint64(size)<<52))
}

// putValue writes the size-byte value of (key, version) into buf, which
// must have capacity maxValue, and returns it.
func putValue(buf []byte, key uint64, version uint32, size int) []byte {
	buf = buf[:size]
	sum := valueSum(key, version, size)
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint32(buf[8:], version)
	binary.LittleEndian.PutUint32(buf[12:], sum)
	off := int(sum % maxValue)
	copy(buf[valueHeader:], pattern[off:])
	return buf
}

// checkValue reports whether v is an intact value of key, at any version.
func checkValue(v []byte, key uint64) bool {
	if len(v) < valueHeader || len(v) > maxValue || binary.LittleEndian.Uint64(v) != key {
		return false
	}
	sum := binary.LittleEndian.Uint32(v[12:])
	if sum != valueSum(key, binary.LittleEndian.Uint32(v[8:]), len(v)) {
		return false
	}
	off := int(sum % maxValue)
	return bytes.Equal(v[valueHeader:], pattern[off:off+len(v)-valueHeader])
}

// samples keeps every latency exactly, in nanoseconds, in a buffer sized
// before the timed region. A full buffer drops further samples and counts
// them, so the percentiles never silently cover less than reported.
type samples struct {
	ns      []int32
	dropped int64
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int32, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	s.ns = append(s.ns, int32(min(d, 1<<31-1)))
}

// sortedCopy merges sample buffers into one sorted slice.
func sortedCopy(bufs ...[]int32) []int32 {
	all := slices.Concat(bufs...)
	slices.Sort(all)
	return all
}

// quantileUS reads the q-quantile of sorted nanosecond samples in
// microseconds; 0 when there are none.
func quantileUS(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// rule the acceptance check applies, so -repeat judges spreads the same way.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
