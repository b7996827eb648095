package concretize

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/singleflight"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// Key identifies one memoized concretization. Two calls share a cache entry
// only when all four components match:
//
//   - Spec: the canonical serialization of the abstract input DAG (the
//     string its FullHash hashes: it covers every node parameter and the
//     edge structure, so differently-shaped abstract DAGs never collide);
//   - Repo / Config / Compilers: fingerprints of the package repositories,
//     the preference configuration, and the compiler registry — the three
//     inputs besides the spec that determine the concretizer's choices;
//   - Mode: "greedy" or "backtracking", because the two algorithms can
//     legitimately return different DAGs for the same abstract spec;
//   - Reuse: the ReuseSource fingerprint (empty without one) — an install,
//     uninstall, or cache push changes the candidate set, and a reuse
//     answer computed before it must never be served after.
//
// Mutating a repository, a configuration scope, the registry, or the reuse
// candidates changes the corresponding fingerprint, so stale entries are
// never returned; they age out of the LRU instead of being collected
// eagerly.
type Key struct {
	Spec      string `json:"spec"`
	Repo      string `json:"repo"`
	Config    string `json:"config"`
	Compilers string `json:"compilers"`
	Mode      string `json:"mode"`
	Reuse     string `json:"reuse,omitempty"`
}

// flightKey renders the key as one string, for the singleflight group
// that coalesces concurrent misses.
func (k Key) flightKey() string {
	return k.Spec + "\x00" + k.Repo + "\x00" + k.Config + "\x00" +
		k.Compilers + "\x00" + k.Mode + "\x00" + k.Reuse
}

// CacheStats reports cumulative cache traffic.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache memoizes concretization results keyed by (abstract spec, repo
// fingerprint, config fingerprint, compiler fingerprint, mode), bounded by
// an LRU policy. It is safe for concurrent use; ConcretizeAll's worker pool
// shares one instance.
//
// Put stores a spec.Template: a private copy of the DAG with every node
// hashed and frozen, so changing the spec that was inserted cannot
// poison the cache. Every hit of an entry is that template's own root,
// shared by all its holders and never copied, and hashing it costs
// nothing. Because it is shared, a hit is frozen: a mutator called on any
// of its nodes panics. A holder that needs a changed DAG derives one
// (Clone, SpliceDep) and changes that.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[Key]*list.Element
	stats   CacheStats
	// flight coalesces concurrent misses per key (ConcretizeCached): the
	// leader solves and stores, and every waiter shares the stored
	// template's root.
	flight singleflight.Group[*spec.Template]
}

// cacheEntry is one LRU slot: the template, a frozen copy of the stored
// DAG, whose root every hit shares.
type cacheEntry struct {
	key  Key
	tmpl *spec.Template
}

// DefaultCacheSize bounds caches created without an explicit capacity. It
// comfortably holds the full 245-package Fig. 8 sweep plus the 36 ARES
// configurations.
const DefaultCacheSize = 512

// NewCache returns an empty cache holding at most max entries (max <= 0
// selects DefaultCacheSize).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		max:     max,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
	}
}

// Get returns the cached concrete DAG for a key, if present: the root of
// the entry's spec.Template, shared with every other hit and frozen.
func (c *Cache) Get(key Key) (*spec.Spec, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	root := el.Value.(*cacheEntry).tmpl.Root()
	c.mu.Unlock()
	return root, true
}

// template returns the stored template for a key, if present, without
// counting a hit or a miss.
func (c *Cache) template(key Key) (*spec.Template, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).tmpl, true
	}
	return nil, false
}

// Put stores a deep clone of a concrete DAG under a key, with every node
// hashed, evicting the least recently used entry when the bound is
// exceeded. It returns the template whose root hits of the entry share.
func (c *Cache) Put(key Key, concrete *spec.Spec) *spec.Template {
	entry := &cacheEntry{key: key, tmpl: spec.NewTemplate(concrete)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = entry
		c.order.MoveToFront(el)
		return entry.tmpl
	}
	c.entries[key] = c.order.PushFront(entry)
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
	return entry.tmpl
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of cumulative hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// persistEntry is the serialized form of one cache slot: the key plus the
// concrete DAG in the store-database spec-JSON encoding (full edge
// fidelity, so DAG hashes survive the round trip).
type persistEntry struct {
	Key      Key             `json:"key"`
	Concrete json.RawMessage `json:"concrete"`
}

// Save writes the cache contents as JSON, least recently used first, so a
// later Load reconstructs both the entries and their recency order.
// Fingerprint keys are saved verbatim: entries recorded under a repository
// or configuration that no longer matches simply never hit.
func (c *Cache) Save(w io.Writer) error {
	c.mu.Lock()
	var entries []persistEntry
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		data := syntax.EncodeJSON(e.tmpl.Root())
		entries = append(entries, persistEntry{Key: e.key, Concrete: data})
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Load merges previously saved entries into the cache (most recent last, so
// recency order is preserved). Undecodable entries are skipped rather than
// failing the whole load: a cache file is an optimization, never a source
// of truth.
func (c *Cache) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var entries []persistEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("concretize: bad cache file: %w", err)
	}
	for _, e := range entries {
		concrete, err := syntax.DecodeJSON(e.Concrete)
		if err != nil {
			continue
		}
		c.Put(e.Key, concrete)
	}
	return nil
}

// SaveFile persists the cache to a file on the host filesystem — the
// cross-process warm path the spack-go CLI uses (each invocation simulates
// a fresh machine, so the simulated filesystem cannot carry the cache
// across runs the way the store index carries installs within one).
func (c *Cache) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a cache file written by SaveFile. A missing file is not an
// error: the first run of a warm-cache workflow starts cold.
func (c *Cache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return c.Load(f)
}
