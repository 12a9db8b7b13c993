package spill

// Sink is one SDS's (or one store shard group's) handle on the spill
// tier: a Store scoped to a namespace. SDSs reach it through the
// coupling in internal/sds (Demote, PromoteOwned), which keeps the rule
// between the two tiers. All methods are safe for concurrent use and
// safe to call from inside reclaim callbacks: the Store never calls back
// into soft memory, so the Context-lock → spill-lock order is acyclic.
type Sink struct {
	st *Store
	ns string
}

// Store returns the underlying spill store.
func (k *Sink) Store() *Store { return k.st }

// Demote writes key's value to the spill tier.
func (k *Sink) Demote(key string, value []byte) error {
	return k.st.Put(k.ns, key, value)
}

// Promote takes key's record for the fault-in path (see Store.Take).
// The caller re-inserts the value into soft memory through the normal
// allocation path and ends the promotion with Done, or with Abort when
// that fails. busy is non-nil when another promoter holds the key.
func (k *Sink) Promote(key string) (p *Promotion, busy <-chan struct{}) {
	return k.st.Take(k.ns, key)
}

// Drop invalidates key and supersedes its promotion in flight (fresh
// writes and deletions in the hot tier must not be shadowed by stale
// spilled values), reporting whether the key was spilled or in transit.
func (k *Sink) Drop(key string) bool { return k.st.Drop(k.ns, key) }

// DropAll invalidates every key of the namespace.
func (k *Sink) DropAll() { k.st.DropAll(k.ns) }

// Contains reports whether key is currently spilled or in transit.
func (k *Sink) Contains(key string) bool { return k.st.Contains(k.ns, key) }

// Len returns the number of live spilled records in the namespace.
func (k *Sink) Len() int { return k.st.Len(k.ns) }
