// Package store implements the per-peer data layer of a P-Grid peer.
//
// The paper distinguishes two things a peer keeps at the leaf level:
//
//   - data items it physically hosts (its "local database"), and
//   - the index D ⊆ ADDR × K: references to the peers hosting items whose
//     keys fall under the path the peer is responsible for.
//
// Store models both. Index entries carry a version number so the update
// experiments of Section 5.2 (propagating an update to all replicas, then
// reading with majority voting) can distinguish stale from fresh replicas.
package store

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// Entry is one index entry: the peer at Holder hosts an item named Name
// indexed under Key, last updated at Version.
type Entry struct {
	Key     bitpath.Path
	Name    string
	Holder  addr.Addr
	Version uint64
}

// String renders the entry for logs.
func (e Entry) String() string {
	return fmt.Sprintf("%s@%s v%d → %v", e.Name, e.Key, e.Version, e.Holder)
}

// Store is the data layer of one peer. It is safe for concurrent use; the
// concurrent runtime exercises peers from multiple goroutines.
// The zero value is not usable; call New.
type Store struct {
	mu sync.RWMutex
	// index: key → name → entry. Two-level so multiple distinct items can
	// share an index key (hash truncation makes that routine).
	index map[bitpath.Path]map[string]Entry
	// hosted: names of items this peer physically hosts.
	hosted map[string]Entry
}

// New returns an empty store.
func New() *Store {
	return &Store{
		index:  make(map[bitpath.Path]map[string]Entry),
		hosted: make(map[string]Entry),
	}
}

// Host records that this peer physically hosts the item. Hosting is
// independent of index responsibility: in a file-sharing network a peer
// hosts its own files but indexes an unrelated key region.
func (s *Store) Host(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hosted[e.Name] = e
}

// Hosted returns the items this peer physically hosts, sorted by name.
func (s *Store) Hosted() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.hosted))
	for _, e := range s.hosted {
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

// Apply merges an index entry, keeping the highest version per (key, name).
// It reports whether the store changed (entry was new or fresher).
func (s *Store) Apply(e Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName, ok := s.index[e.Key]
	if !ok {
		byName = make(map[string]Entry)
		s.index[e.Key] = byName
	}
	old, exists := byName[e.Name]
	if exists && old.Version >= e.Version {
		return false
	}
	byName[e.Name] = e
	return true
}

// Get returns the entry for (key, name), if present.
func (s *Store) Get(key bitpath.Path, name string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key][name]
	return e, ok
}

// Lookup returns all entries indexed under exactly key, sorted by name.
func (s *Store) Lookup(key bitpath.Path) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byName := s.index[key]
	out := make([]Entry, 0, len(byName))
	for _, e := range byName {
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

// PrefixScan returns all entries whose key has the given prefix, sorted by
// (key, name). With prefix-preserving text keys this implements the paper's
// Section 6 trie/prefix search extension.
func (s *Store) PrefixScan(prefix bitpath.Path) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for key, byName := range s.index {
		if !key.HasPrefix(prefix) {
			continue
		}
		for _, e := range byName {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// Entries returns every index entry, sorted by (key, name).
func (s *Store) Entries() []Entry {
	return s.PrefixScan(bitpath.Empty)
}

// Len returns the number of index entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, byName := range s.index {
		n += len(byName)
	}
	return n
}

// Summary condenses the index into the fixed-size fingerprint the health
// digests carry: entry count, the highest Version over all entries (the
// staleness clock the Section 5.2 update strategies compare), and an
// order-independent hash of the full content, so two replicas of one path
// can be compared for divergence without shipping their indexes.
type Summary struct {
	Entries    int
	MaxVersion uint64
	Hash       uint64
}

// Summary computes the store's index fingerprint in one pass. The hash is
// a wrapping sum of per-entry FNV-1a hashes, so it is independent of
// iteration order: equal indexes hash equal, and replicas that diverge in
// any entry (almost surely) differ.
func (s *Store) Summary() Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum Summary
	for key, byName := range s.index {
		for _, e := range byName {
			sum.Entries++
			if e.Version > sum.MaxVersion {
				sum.MaxVersion = e.Version
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", key, e.Name, int64(e.Holder), e.Version)
			sum.Hash += h.Sum64()
		}
	}
	return sum
}

// Delete removes the entry for (key, name) and reports whether it existed.
func (s *Store) Delete(key bitpath.Path, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName, ok := s.index[key]
	if !ok {
		return false
	}
	if _, ok := byName[name]; !ok {
		return false
	}
	delete(byName, name)
	if len(byName) == 0 {
		delete(s.index, key)
	}
	return true
}

// Evict removes and returns every entry whose key does NOT have the given
// prefix. When a peer specializes its path during construction, entries
// outside its narrowed responsibility are handed over to the exchange
// partner (who covers the other half).
func (s *Store) Evict(keep bitpath.Path) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for key, byName := range s.index {
		if key.HasPrefix(keep) {
			continue
		}
		for _, e := range byName {
			out = append(out, e)
		}
		delete(s.index, key)
	}
	sortEntries(out)
	return out
}

// Outside returns every entry whose key does NOT have the given prefix —
// the entries Evict(keep) would remove — sorted, without removing them. A
// peer handing entries to a partner over the network pushes this copy and
// Releases each entry only once the partner has acknowledged it, so a
// failed push leaves the entry where it was instead of nowhere.
func (s *Store) Outside(keep bitpath.Path) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for key, byName := range s.index {
		if key.HasPrefix(keep) {
			continue
		}
		for _, e := range byName {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// Release removes the entry for (e.Key, e.Name) unless the store holds a
// fresher version than e, and reports whether it removed one. It is the
// second half of a handover: a fresher version that arrived while e was
// being pushed is not the copy the partner acknowledged, so it stays.
func (s *Store) Release(e Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName := s.index[e.Key]
	if old, ok := byName[e.Name]; !ok || old.Version > e.Version {
		return false
	}
	delete(byName, e.Name)
	if len(byName) == 0 {
		delete(s.index, e.Key)
	}
	return true
}

// Clear removes all index entries (not hosted items).
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index = make(map[bitpath.Path]map[string]Entry)
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if c := bitpath.Compare(es[i].Key, es[j].Key); c != 0 {
			return c < 0
		}
		return es[i].Name < es[j].Name
	})
}
