package main

import (
	"math"
	"time"
)

// config is one run's inputs. Everything a driver does follows from seed.
type config struct {
	seed    int64
	seconds float64 // length of the timed region
	ops     int64   // > 0: the driver runs exactly this many ops instead
	traced  bool    // interposers and spans on
	scale   int     // divisor on key counts, live sets and partitions; 1 outside tests
	rung    time.Duration
	outDir  string // trace files go here
	outJSON string // -json: copy of the header and result
}

// sliceCount is about how many slices a timed region is cut into. Speed is
// reported as a quartile over the slices, not as a mean over the region: the
// host is shared, and a neighbour's burst slows some slices and never
// speeds one up (see README.md, "Steadiness").
const sliceCount = 100

// stopper ends a timed region: after maxOps ops, or at the first aligned op
// index past the deadline. On the way the driver leaves a mark at the first
// aligned op index after each slice of time, so a slice is a whole number of
// the workload's periods.
type stopper struct {
	maxOps   int64
	deadline time.Time
	slice    time.Duration // shortest slice; 0 cuts none
}

func (c config) stopper() stopper {
	if c.ops > 0 {
		return opsStopper(c.ops)
	}
	d := time.Duration(c.seconds * float64(time.Second))
	return stopper{maxOps: math.MaxInt64, deadline: time.Now().Add(d), slice: d / sliceCount}
}

// opsStopper stops after n ops and cuts no slices.
func opsStopper(n int64) stopper {
	return stopper{maxOps: n, deadline: time.Now().Add(24 * time.Hour)}
}

// mark is the driver's progress at a slice boundary.
type mark struct {
	at            time.Duration // since the driver started
	ops           int64
	reads, writes int // latency samples taken so far
}

// probePhases is how many evenly spaced points of the workload's period the
// space probes rotate through, one probe a slice. Soft pages held per live
// byte swing with the period (on sma_churn by a factor of two between the
// live set's peak and its trough, where the allocator's page caches weigh
// most), so a figure read at one phase says little and repeats badly.
const probePhases = 8

// sampleCap sizes a latency buffer for the run: every call in ops mode, and
// in time mode the most calls the fastest layer could complete.
func (c config) sampleCap(callsPerSecond float64) int {
	if c.ops > 0 {
		return int(c.ops) + 1
	}
	return int(c.seconds*callsPerSecond) + 1
}

// loop shapes how a driver replays its ring.
type loop struct {
	batch       int   // ops consumed per call (pipeline depth)
	sampleEvery int64 // time one call in this many; power of two
	spanEvery   int64 // record a span for one call in this many; multiple of sampleEvery
	align       int64 // in time mode stop only at op indexes divisible by this; multiple of batch*sampleEvery
}

// driver is the closed-loop client: it issues the next op only after the
// previous one returned. A workload has one, so that with the server
// goroutine, the antagonist or the Go runtime's GC workers beside it no more
// threads are busy than the reference box has cores.
type driver struct {
	ring  []op
	pos   int   // next ring entry; the ring is replayed cyclically
	total int64 // ops issued since setup, warm-up included

	read, write *samples
	marks       []mark
	probe       func() memSample // system.memory
	probeAt     int64            // value of ops at which the next probe is due; -1: none
	mem         []memSample
	ops         int64 // timed region only
	failed      int64 // errors, corrupt reads, and misses where nothing can have been revoked
	reads, hits int64

	spans  *[]span // nil when untraced
	rec    *recorder
	spanID uint64 // id of the driver.op span being recorded, else 0

	scratch []byte // value being written
	dst     []byte // value being read
}

func newDriver(ring []op, c config, callsPerSecond float64, rec *recorder) *driver {
	d := &driver{
		ring:    ring,
		read:    newSamples(c.sampleCap(callsPerSecond)),
		write:   newSamples(c.sampleCap(callsPerSecond)),
		marks:   make([]mark, 0, 2*sliceCount),
		mem:     make([]memSample, 0, 2*sliceCount),
		probeAt: -1,
		scratch: make([]byte, maxValue),
		dst:     make([]byte, 0, maxValue),
	}
	if rec != nil {
		d.rec = rec
		d.spans = rec.newBuf()
	}
	return d
}

// drive replays the ring until st says stop. exec runs one call (batch
// ops starting at ops[0]) and returns the kind its latency belongs to;
// opFree latencies are not kept. With record false nothing is counted or
// sampled: that is warm-up.
func (d *driver) drive(st stopper, l loop, record bool, exec func(ops []op) uint8) {
	batch := int64(l.batch)
	start := time.Now()
	nextMark := start
	for call := int64(0); call*batch < st.maxOps; call++ {
		sampled := call&(l.sampleEvery-1) == 0
		if sampled && call*batch%l.align == 0 {
			now := time.Now()
			if !now.Before(st.deadline) {
				break
			}
			if record && st.slice > 0 && !now.Before(nextMark) {
				d.marks = append(d.marks, mark{now.Sub(start), d.ops, len(d.read.ns), len(d.write.ns)})
				nextMark = now.Add(st.slice)
				phase := int64(len(d.marks) % probePhases)
				d.probeAt = d.ops + phase*l.align/probePhases/batch*batch
			}
		}
		if d.ops == d.probeAt && record {
			d.mem = append(d.mem, d.probe())
		}
		ops := d.ring[d.pos : d.pos+l.batch]
		if d.pos += l.batch; d.pos == len(d.ring) {
			d.pos = 0
		}
		if !record || !sampled {
			exec(ops)
		} else {
			spanned := d.spans != nil && call%l.spanEvery == 0 && len(*d.spans) < cap(*d.spans)-1
			var startNs int64
			if spanned {
				d.spanID = 1<<48 | uint64(d.total)
				startNs = d.rec.now()
			}
			t := time.Now()
			kind := exec(ops)
			dt := time.Since(t)
			switch kind {
			case opRead:
				d.read.add(dt)
			case opWrite:
				d.write.add(dt)
			}
			if spanned {
				*d.spans = append(*d.spans, span{ID: d.spanID, Name: spanDriverOp, StartNs: startNs, EndNs: startNs + int64(dt)})
				d.spanID = 0
			}
		}
		d.total += batch
		if record {
			d.ops += batch
		}
	}
}

// rttStart stamps the start of a client call when the op is being recorded.
func (d *driver) rttStart() int64 {
	if d.spanID == 0 {
		return 0
	}
	return d.rec.now()
}

// rttSpan records the client call inside the driver.op being recorded.
func (d *driver) rttSpan(startNs int64) {
	if d.spanID != 0 {
		*d.spans = append(*d.spans, span{ID: d.rec.nextID.Add(1), Parent: d.spanID, Name: spanRespRTT, StartNs: startNs, EndNs: d.rec.now()})
	}
}
