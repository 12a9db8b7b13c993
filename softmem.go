package softmem

// This file is the library's public facade: aliases and constructors
// re-exporting the pieces under internal/ so applications depend on one
// import path. Examples and external users build machines (NewPool),
// daemons (NewDaemon), per-process allocators (New), and Soft Data
// Structures without reaching into softmem/internal/... directly; the
// internal packages remain the implementation and can refactor freely.

import (
	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/spill"
)

// PageSize is the soft memory page granularity in bytes.
const PageSize = pages.Size

// Core allocator types (internal/core).
type (
	// SMA is a process's Soft Memory Allocator.
	SMA = core.SMA
	// Config parameterizes an SMA.
	Config = core.Config
	// Context is a Soft Data Structure's handle on its isolated heap.
	Context = core.Context
	// ContextInfo describes one registered SDS context.
	ContextInfo = core.ContextInfo
	// Stats is a snapshot of an SMA's accounting.
	Stats = core.Stats
	// Usage is the process self-report sent with daemon interactions.
	Usage = core.Usage
	// PressureEvent describes one served reclamation demand.
	PressureEvent = core.PressureEvent
	// Pin holds one allocation against revocation for lock-free reads.
	Pin = core.Pin
	// Tx exposes allocation operations inside a locked section.
	Tx = core.Tx
	// Reclaimer is the reclamation protocol every SDS implements.
	Reclaimer = core.Reclaimer
	// DaemonClient is the SMA's view of the Soft Memory Daemon.
	DaemonClient = core.DaemonClient
	// Ref is a generation-checked handle to one soft allocation.
	Ref = alloc.Ref
	// HeapStats is one heap's allocation accounting.
	HeapStats = alloc.Stats
	// Pool is a machine's soft page pool (physical frames).
	Pool = pages.Pool
)

// Sentinel errors.
var (
	// ErrExhausted reports that a soft allocation could not be satisfied
	// even after machine-wide reclamation.
	ErrExhausted = core.ErrExhausted
	// ErrClosed reports use of a closed Context.
	ErrClosed = core.ErrClosed
	// ErrPinned reports freeing or reclaiming a pinned allocation.
	ErrPinned = core.ErrPinned
	// ErrReclaimed reports SDS data revoked under memory pressure.
	ErrReclaimed = sds.ErrReclaimed
)

// New returns a process's Soft Memory Allocator drawing pages from
// cfg.Machine under cfg.Daemon's budget arbitration.
func New(cfg Config) *SMA { return core.New(cfg) }

// NewPool returns a machine soft page pool of capacityPages pages
// (0 = unbounded).
func NewPool(capacityPages int) *Pool { return pages.NewPool(capacityPages) }

// Soft Memory Daemon (internal/smd).
type (
	// Daemon is the machine-wide arbiter of soft memory budgets.
	Daemon = smd.Daemon
	// DaemonConfig parameterizes a Daemon.
	DaemonConfig = smd.Config
	// DaemonStats is a snapshot of a Daemon's accounting.
	DaemonStats = smd.Stats
	// DaemonEvent is one audit record from the daemon's event ring.
	DaemonEvent = smd.Event
	// TenantSpec attaches QoS identity (tenant name, priority class,
	// latency SLO) to a registered process; see Daemon.SetTenant.
	TenantSpec = smd.TenantSpec
	// QoSInfo is one process's stall-aware QoS state, from
	// Daemon.QoSSnapshot.
	QoSInfo = smd.QoSInfo
)

// NewDaemon returns a Soft Memory Daemon arbitrating cfg.TotalPages of
// soft memory. Register each process's SMA with Daemon.Register and
// attach the returned client via SMA.AttachDaemon.
func NewDaemon(cfg DaemonConfig) *Daemon { return smd.NewDaemon(cfg) }

// Soft Data Structures (internal/sds).
type (
	// Codec converts values to and from soft-memory bytes.
	Codec[T any] = sds.Codec[T]
	// BytesCodec stores []byte values as-is.
	BytesCodec = sds.BytesCodec
	// StringCodec stores string values.
	StringCodec = sds.StringCodec
	// Uint64Codec stores uint64 values.
	Uint64Codec = sds.Uint64Codec
	// JSONCodec stores any JSON-marshalable value.
	JSONCodec[T any] = sds.JSONCodec[T]
	// SDSOption tunes SDS construction (e.g. WithPriority).
	SDSOption = sds.Option
	// EvictPolicy selects an eviction order under reclamation.
	EvictPolicy = sds.EvictPolicy

	// SoftLinkedList is a doubly-linked list in soft memory.
	SoftLinkedList[T any] = sds.SoftLinkedList[T]
	// SoftQueue is a FIFO queue in soft memory.
	SoftQueue[T any] = sds.SoftQueue[T]
	// SoftArray is a fixed-length rebuildable array in soft memory.
	SoftArray[T any] = sds.SoftArray[T]
	// ArrayConfig parameterizes a SoftArray.
	ArrayConfig[T any] = sds.ArrayConfig[T]
	// SoftHashTable maps comparable keys to soft-memory values.
	SoftHashTable[K comparable] = sds.SoftHashTable[K]
	// HashTableConfig parameterizes a SoftHashTable.
	HashTableConfig[K comparable] = sds.HashTableConfig[K]
	// SoftBuffer is an append-only byte log in soft memory.
	SoftBuffer = sds.SoftBuffer
	// BufferConfig parameterizes a SoftBuffer.
	BufferConfig = sds.BufferConfig
)

// Eviction policies for hash tables and the kvstore.
const (
	EvictOldest = sds.EvictOldest
	EvictLRU    = sds.EvictLRU
)

// WithPriority sets an SDS's reclamation priority (lower = reclaimed
// first).
func WithPriority(p int) SDSOption { return sds.WithPriority(p) }

// NewSoftLinkedList returns a soft linked list; onReclaim (optional) sees
// every element revoked under memory pressure.
func NewSoftLinkedList[T any](sma *SMA, name string, codec Codec[T], onReclaim func(T), opts ...SDSOption) *SoftLinkedList[T] {
	return sds.NewSoftLinkedList(sma, name, codec, onReclaim, opts...)
}

// NewSoftQueue returns a soft FIFO queue; onReclaim (optional) sees every
// element revoked under memory pressure.
func NewSoftQueue[T any](sma *SMA, name string, codec Codec[T], onReclaim func(T), opts ...SDSOption) *SoftQueue[T] {
	return sds.NewSoftQueue(sma, name, codec, onReclaim, opts...)
}

// NewSoftArray returns a soft fixed-length array.
func NewSoftArray[T any](sma *SMA, name string, codec Codec[T], cfg ArrayConfig[T]) (*SoftArray[T], error) {
	return sds.NewSoftArray(sma, name, codec, cfg)
}

// NewSoftHashTable returns a soft hash table.
func NewSoftHashTable[K comparable](sma *SMA, name string, cfg HashTableConfig[K]) *SoftHashTable[K] {
	return sds.NewSoftHashTable(sma, name, cfg)
}

// NewSoftBuffer returns a soft append-only byte log.
func NewSoftBuffer(sma *SMA, name string, cfg BufferConfig) *SoftBuffer {
	return sds.NewSoftBuffer(sma, name, cfg)
}

// Key-value store integration (internal/kvstore).
type (
	// KVStore is the Redis-like soft-memory store from the paper's §5.
	KVStore = kvstore.Store
	// KVStats is a KVStore's unified observability snapshot.
	KVStats = kvstore.Stats
	// KVOption tunes a KVStore at construction (see NewKV).
	KVOption = kvstore.Option
	// KVOp identifies a KVStore dispatch operation (KVOpGet, ...).
	KVOp = kvstore.Op
	// KVCommand is one typed command in the store's dispatch API. See
	// kvstore.Command for the aliasing rules on Key/Arg/Val.
	KVCommand = kvstore.Command
	// KVBatch routes typed commands to shard owners and rejoins their
	// results in submission order; obtain one from KVStore.NewBatch.
	KVBatch = kvstore.Batch
)

// Dispatch operations for KVCommand.
const (
	KVOpGet     = kvstore.OpGet
	KVOpSet     = kvstore.OpSet
	KVOpDel     = kvstore.OpDel
	KVOpIncr    = kvstore.OpIncr
	KVOpAppend  = kvstore.OpAppend
	KVOpStrLen  = kvstore.OpStrLen
	KVOpExists  = kvstore.OpExists
	KVOpExpire  = kvstore.OpExpire
	KVOpTTL     = kvstore.OpTTL
	KVOpPersist = kvstore.OpPersist
)

// ErrKVOverloaded reports a command shed because its shard owner's ring
// was full; back off and retry.
var ErrKVOverloaded = kvstore.ErrOverloaded

// KVStore construction options, forwarded from internal/kvstore.
var (
	KVWithName        = kvstore.WithName
	KVWithPolicy      = kvstore.WithPolicy
	KVWithPriority    = kvstore.WithPriority
	KVWithShards      = kvstore.WithShards
	KVWithOnReclaim   = kvstore.WithOnReclaim
	KVWithCleanupWork = kvstore.WithCleanupWork
	KVWithClock       = kvstore.WithClock
	KVWithSpill       = kvstore.WithSpill
)

// NewKV returns a Redis-like store whose values live in soft memory,
// tuned by functional options:
//
//	store := softmem.NewKV(sma, softmem.KVWithShards(8))
func NewKV(sma *SMA, opts ...KVOption) *KVStore { return kvstore.New(sma, opts...) }

// Spill tier (internal/spill): compressed disk demotion for reclaimed
// soft data, with transparent promotion on miss.
type (
	// SpillStore is an append-only, segment-based local spill store.
	SpillStore = spill.Store
	// SpillConfig parameterizes a SpillStore.
	SpillConfig = spill.Config
	// SpillSink is one SDS's namespace-scoped handle on a SpillStore;
	// its methods plug directly into SDS reclaim callbacks.
	SpillSink = spill.Sink
	// SpillStats is a snapshot of a SpillStore's instrumentation.
	SpillStats = spill.Stats
	// SoftSpillTable is a string-keyed SoftHashTable whose revoked
	// entries demote to a spill tier and promote back on Get misses.
	SoftSpillTable = sds.SoftSpillTable
)

// Spill sentinel errors.
var (
	// ErrSpillCorrupt reports a spill record whose checksum or framing
	// failed verification.
	ErrSpillCorrupt = spill.ErrCorrupt
	// ErrSpillClosed reports use of a closed SpillStore.
	ErrSpillClosed = spill.ErrStoreClosed
)

// OpenSpillStore opens (or recovers) a spill store rooted at cfg.Dir.
func OpenSpillStore(cfg SpillConfig) (*SpillStore, error) { return spill.Open(cfg) }

// NewSpillSink scopes a namespace inside st, for wiring one SDS's
// reclaim callbacks to the spill tier.
func NewSpillSink(st *SpillStore, namespace string) *SpillSink {
	return st.Sink(namespace)
}

// NewSoftSpillTable returns a string-keyed soft hash table coupled to a
// spill sink: entries revoked under pressure demote to disk and fault
// back in on Get misses.
func NewSoftSpillTable(sma *SMA, name string, sink *SpillSink, cfg HashTableConfig[string]) *SoftSpillTable {
	return sds.NewSoftSpillTable(sma, name, sink, cfg)
}
