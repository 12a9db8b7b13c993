package kvstore

import (
	"sort"
	"sync"

	"softmem/internal/sds"
)

// hashField addresses one field of one Redis-style hash.
type hashField struct {
	key   string
	field string
}

// hashStore implements HSET/HGET-style hashes as a composed SDS: field
// values live in a soft hash table keyed by (key, field), while the
// per-key field index stays in traditional memory and is cleaned up by
// the reclaim callback — the §7 composition pattern (the paper's Redis
// integration kept keys/values traditional and freed them via callback;
// here the traditional side is the field index).
//
// Lock ordering: the Context lock (inside sds calls) is always taken before
// hashStore.mu — the reclaim callback runs under the Context lock and then
// takes mu, so no path may hold mu while calling into the table.
type hashStore struct {
	ht *sds.SoftHashTable[hashField]

	mu     sync.Mutex
	fields map[string]map[string]struct{}
}

func newHashStore(table *sds.SoftHashTable[hashField]) *hashStore {
	return &hashStore{ht: table, fields: make(map[string]map[string]struct{})}
}

// dropField removes a field from the traditional index (callback path).
func (h *hashStore) dropField(f hashField) {
	h.mu.Lock()
	if set, ok := h.fields[f.key]; ok {
		delete(set, f.field)
		if len(set) == 0 {
			delete(h.fields, f.key)
		}
	}
	h.mu.Unlock()
}

// addField records a field in the traditional index.
func (h *hashStore) addField(f hashField) {
	h.mu.Lock()
	set, ok := h.fields[f.key]
	if !ok {
		set = make(map[string]struct{})
		h.fields[f.key] = set
	}
	set[f.field] = struct{}{}
	h.mu.Unlock()
}

// HSet stores value under key's field, reporting whether the field is
// new. The field is indexed after every store, not only a new one: Put's
// own allocation can make a demand revoke the field (dropping it from
// the index) before Put stores it again.
func (s *Store) HSet(key, field string, value []byte) (bool, error) {
	f := hashField{key: key, field: field}
	existed := s.hashes.ht.Contains(f)
	if err := s.hashes.ht.Put(f, value); err != nil {
		return false, err
	}
	s.hashes.addField(f)
	return !existed, nil
}

// HGet fetches key's field; ok is false on miss (including reclaimed
// fields).
func (s *Store) HGet(key, field string) (value []byte, ok bool, err error) {
	return s.hashes.ht.Get(hashField{key: key, field: field})
}

// HDel removes fields from key's hash, returning how many existed.
func (s *Store) HDel(key string, fields ...string) (int, error) {
	n := 0
	for _, field := range fields {
		f := hashField{key: key, field: field}
		removed, err := s.hashes.ht.Delete(f)
		if err != nil {
			return n, err
		}
		if removed {
			s.hashes.dropField(f)
			n++
		}
	}
	return n, nil
}

// HLen returns the number of fields indexed under key. Fields whose
// values were reclaimed still count until accessed or swept; HGetAll
// reports only live ones.
func (s *Store) HLen(key string) int {
	s.hashes.mu.Lock()
	defer s.hashes.mu.Unlock()
	return len(s.hashes.fields[key])
}

// HExists reports whether key's field holds a live value.
func (s *Store) HExists(key, field string) bool {
	return s.hashes.ht.Contains(hashField{key: key, field: field})
}

// HGetAll returns the live fields and values of key's hash, sorted by
// field name. Reclaimed fields are absent — a caching client re-fetches
// the whole object on partial data.
func (s *Store) HGetAll(key string) (map[string][]byte, error) {
	s.hashes.mu.Lock()
	names := make([]string, 0, len(s.hashes.fields[key]))
	for f := range s.hashes.fields[key] {
		names = append(names, f)
	}
	s.hashes.mu.Unlock()
	sort.Strings(names)

	out := make(map[string][]byte, len(names))
	for _, field := range names {
		v, ok, err := s.hashes.ht.Get(hashField{key: key, field: field})
		if err != nil {
			return nil, err
		}
		if ok {
			out[field] = v
		}
	}
	return out, nil
}
