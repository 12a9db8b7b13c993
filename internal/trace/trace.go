// Package trace generates the synthetic workloads the experiments run on:
// skewed key-access streams for the KV store (the paper's Redis cache)
// and diurnal load curves (the paper's §2 "nocturnal lull" pattern).
// All generators are seeded and deterministic.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// KeyGen produces a stream of key identifiers.
type KeyGen interface {
	// Next returns the next key in the stream.
	Next() uint64
}

// ZipfKeys generates keys with a Zipfian popularity distribution over
// [0, n), the standard model for cache workloads.
type ZipfKeys struct {
	z *rand.Zipf
}

// NewZipfKeys returns a Zipf generator over n keys with skew s (> 1;
// typical cache workloads use 1.01–1.3).
func NewZipfKeys(seed int64, n uint64, s float64) *ZipfKeys {
	if n == 0 {
		panic("trace: NewZipfKeys with zero keyspace")
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfKeys{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next returns the next Zipf-distributed key.
func (g *ZipfKeys) Next() uint64 { return g.z.Uint64() }

// UniformKeys generates uniformly random keys over [0, n).
type UniformKeys struct {
	rng *rand.Rand
	n   uint64
}

// NewUniformKeys returns a uniform generator over n keys.
func NewUniformKeys(seed int64, n uint64) *UniformKeys {
	if n == 0 {
		panic("trace: NewUniformKeys with zero keyspace")
	}
	return &UniformKeys{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next returns the next uniformly distributed key.
func (g *UniformKeys) Next() uint64 { return uint64(g.rng.Int63n(int64(g.n))) }

// SequentialKeys generates 0, 1, 2, ... wrapping at n. Useful for loading
// a store with a known population.
type SequentialKeys struct {
	next, n uint64
}

// NewSequentialKeys returns a sequential generator over n keys.
func NewSequentialKeys(n uint64) *SequentialKeys {
	if n == 0 {
		panic("trace: NewSequentialKeys with zero keyspace")
	}
	return &SequentialKeys{n: n}
}

// Next returns the next key in sequence.
func (g *SequentialKeys) Next() uint64 {
	k := g.next
	g.next = (g.next + 1) % g.n
	return k
}

// Key renders a key id as the fixed-width string form used by the KV
// experiments, so every key has identical length (the paper's 130 K pairs
// in 10 MiB imply uniform entry sizes).
func Key(id uint64) string { return fmt.Sprintf("key:%012d", id) }

// Diurnal models the paper's day/night load pattern: a sinusoid over
// period with the given low and high multipliers. At t=0 load is at the
// peak (midday); at t=period/2 it bottoms out (nocturnal lull).
func Diurnal(t, period time.Duration, low, high float64) float64 {
	if period <= 0 {
		panic("trace: Diurnal with non-positive period")
	}
	phase := 2 * math.Pi * float64(t%period) / float64(period)
	mid := (high + low) / 2
	amp := (high - low) / 2
	return mid + amp*math.Cos(phase)
}
