package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simfs"
)

// hashAlphabet is the character set of spec.FullHash (lowercase base32).
// One shard owns each leading character, so a shard's on-disk file is
// literally named after the hash prefix it covers.
const hashAlphabet = "abcdefghijklmnopqrstuvwxyz234567"

// numShards is the stripe count of the index: one shard per possible
// first hash character.
const numShards = len(hashAlphabet)

// shardOf maps a full DAG hash to its shard number. Hashes are uniform
// (SHA-256), so the stripes are statistically balanced; anything that is
// not a well-formed hash lands deterministically in shard 0.
func shardOf(hash string) int {
	if hash == "" {
		return 0
	}
	c := hash[0]
	switch {
	case c >= 'a' && c <= 'z':
		return int(c - 'a')
	case c >= '2' && c <= '7':
		return 26 + int(c-'2')
	default:
		return 0
	}
}

// shard is one stripe: its own lock, map, and generation counters, so
// builders touching different hash prefixes never contend.
type shard struct {
	mu      sync.RWMutex
	records map[string]*Record
	// gen increments on every mutation; savedGen records the generation
	// last persisted. gen != savedGen means the shard is dirty and Save
	// must rewrite its file.
	gen      uint64
	savedGen uint64
}

// shardedIndex is the installation database: a map from full DAG hash to
// record, split into numShards independent shards keyed by hash prefix.
// Each shard persists to its own file .spack-db/shards/<prefix>.json plus
// a manifest, so concurrent builders working on different specs share no
// lock and Save only rewrites shards that changed since the last Save. It
// is safe for concurrent use; Select hands out records only for reading
// and snapshots copy the mutable fields under the shard lock, so callers
// never race with Promote.
type shardedIndex struct {
	shards [numShards]shard
	// saveMu serializes Save/Load so concurrent savers do not interleave
	// shard files and the manifest. Mutations do not take it.
	saveMu sync.Mutex
}

// newShardedIndex returns an empty lock-striped index.
func newShardedIndex() *shardedIndex {
	ix := &shardedIndex{}
	for i := range ix.shards {
		ix.shards[i].records = make(map[string]*Record)
	}
	return ix
}

// Lookup returns the record for a DAG hash.
func (ix *shardedIndex) Lookup(hash string) (*Record, bool) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.records[hash]
	return r, ok
}

// Insert adds a record for a hash. When a record already exists the
// existing one wins and is returned with inserted=false.
func (ix *shardedIndex) Insert(hash string, r *Record) (winner *Record, inserted bool) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, ok := sh.records[hash]; ok {
		return existing, false
	}
	sh.records[hash] = r
	sh.gen++
	return r, true
}

// Promote marks an installed hash explicit (§3.4.3's user-asked-for
// flag), reporting whether the hash was present. The flip happens under
// the shard lock so snapshots never observe a torn record.
func (ix *shardedIndex) Promote(hash string) bool {
	return ix.setExplicit(hash, true)
}

// Demote clears the explicit flag — the inverse of Promote, used when a
// root is released so garbage collection may reclaim its exclusive cone.
// Reports whether the hash was present.
func (ix *shardedIndex) Demote(hash string) bool {
	return ix.setExplicit(hash, false)
}

func (ix *shardedIndex) setExplicit(hash string, explicit bool) bool {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.records[hash]
	if !ok {
		return false
	}
	if r.Explicit != explicit {
		r.Explicit = explicit
		sh.gen++
	}
	return true
}

// Remove deletes a hash; missing hashes are a no-op.
func (ix *shardedIndex) Remove(hash string) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.records[hash]; ok {
		delete(sh.records, hash)
		sh.gen++
	}
}

// Len counts records.
func (ix *shardedIndex) Len() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// Generation is a counter that advances on every mutation (insert,
// promote, remove, replace). It fingerprints the index contents cheaply:
// equal generations on one process's index imply an unchanged candidate
// set, which the concretizer's reuse snapshot and memo-cache keys rely
// on. It sums the per-shard counters; any mutation bumps exactly one
// shard's counter, so the sum can only stand still while the contents do.
func (ix *shardedIndex) Generation() uint64 {
	var gen uint64
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		gen += sh.gen
		sh.mu.RUnlock()
	}
	return gen
}

// Select returns records accepted by filter (nil accepts everything),
// sorted by prefix — the snapshot iterator consumers use instead of
// copying the whole index.
func (ix *shardedIndex) Select(filter func(*Record) bool) []*Record {
	var out []*Record
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, r := range sh.records {
			if filter == nil || filter(r) {
				out = append(out, r)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

// snapshotShard copies one shard's records by value under its read lock,
// so persistence never reads Explicit (which a concurrent Install may
// promote) through a shared pointer. Spec and Lineage are immutable after
// insert, so the copies share them.
func (ix *shardedIndex) snapshotShard(i int) []Record {
	sh := &ix.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]Record, 0, len(sh.records))
	for _, r := range sh.records {
		out = append(out, *r)
	}
	return out
}

// Replace swaps the entire contents (Load/Reindex) and marks every shard
// dirty for the next Save.
func (ix *shardedIndex) Replace(records map[string]*Record) {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		sh.records = make(map[string]*Record)
		sh.gen++
	}
	for h, r := range records {
		sh := &ix.shards[shardOf(h)]
		sh.records[h] = r
	}
	for i := range ix.shards {
		ix.shards[i].mu.Unlock()
	}
}

// manifest is the on-disk table of contents: which shard files exist, how
// many records each holds, and its generation at save time.
type manifest struct {
	Version int             `json:"version"`
	Shards  []manifestShard `json:"shards"`
}

type manifestShard struct {
	Prefix string `json:"prefix"`
	Count  int    `json:"count"`
	Gen    uint64 `json:"gen"`
}

// Save persists the index under dbDir, rewriting only dirty shards (temp
// file + rename each) and then the manifest. A shard emptied by
// uninstalls keeps an empty file so Load and the manifest stay consistent.
func (ix *shardedIndex) Save(fs *simfs.FS, dbDir string) error {
	ix.saveMu.Lock()
	defer ix.saveMu.Unlock()

	shardsDir := dbDir + "/" + shardsDirName
	mkdirDone := false
	var man manifest
	man.Version = shardedLayoutVersion
	dirtyWritten := false
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		gen, saved, count := sh.gen, sh.savedGen, len(sh.records)
		sh.mu.RUnlock()
		if count == 0 && gen == saved {
			continue // never-populated (or already-persisted-empty) shard
		}
		prefix := string(hashAlphabet[i])
		if gen != saved {
			entries := ix.snapshotShard(i)
			data, err := encodeEntries(entries)
			if err != nil {
				return err
			}
			if !mkdirDone {
				if err := fs.MkdirAll(shardsDir); err != nil {
					return err
				}
				mkdirDone = true
			}
			if err := writeFileAtomic(fs, shardsDir+"/"+prefix+".json", data); err != nil {
				return err
			}
			count = len(entries)
			sh.mu.Lock()
			sh.savedGen = gen
			sh.mu.Unlock()
			dirtyWritten = true
		}
		man.Shards = append(man.Shards, manifestShard{Prefix: prefix, Count: count, Gen: gen})
	}
	if !dirtyWritten {
		// Nothing changed since the last Save; the manifest on disk is
		// still accurate — unless nothing was ever written, in which case
		// an empty store still persists an empty manifest.
		if ex, _ := fs.Stat(dbDir + "/" + manifestFile); ex {
			return nil
		}
	}
	if err := fs.MkdirAll(dbDir); err != nil {
		return err
	}
	data, err := encodeManifest(man)
	if err != nil {
		return err
	}
	return writeFileAtomic(fs, dbDir+"/"+manifestFile, data)
}

// Load replaces the contents from the manifest and shard files under
// dbDir, returning ErrNoDatabase when no manifest has been saved there.
func (ix *shardedIndex) Load(fs *simfs.FS, dbDir string) error {
	ix.saveMu.Lock()
	man, err := readManifest(fs, dbDir)
	ix.saveMu.Unlock()
	if err != nil {
		return err
	}

	records := make(map[string]*Record)
	// behind marks shards whose file disagrees with the manifest count: a
	// crash between a shard rename and the manifest rename (Save writes
	// shards first, manifest last) leaves the manifest one step stale. The
	// shard file is the newer truth — adopt it and mark the shard dirty so
	// the next Save rewrites the manifest back into agreement.
	behind := make(map[string]bool)
	for _, ms := range man.Shards {
		path := dbDir + "/" + shardsDirName + "/" + ms.Prefix + ".json"
		data, err := fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: manifest names missing shard %s: %w", ms.Prefix, err)
		}
		entries, err := decodeEntries(data)
		if err != nil {
			return fmt.Errorf("store: corrupt shard %s: %w", ms.Prefix, err)
		}
		if len(entries) != ms.Count {
			behind[ms.Prefix] = true
		}
		for h, r := range entries {
			records[h] = r
		}
	}
	ix.Replace(records)
	// Adopt the manifest's generations so an immediately following Save
	// rewrites nothing — except shards the manifest trails, which stay
	// dirty until a Save reconciles them.
	ix.saveMu.Lock()
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		sh.gen = 0
		sh.savedGen = 0
		sh.mu.Unlock()
	}
	for _, ms := range man.Shards {
		sh := &ix.shards[shardOf(ms.Prefix)]
		sh.mu.Lock()
		sh.gen = ms.Gen
		sh.savedGen = ms.Gen
		if behind[ms.Prefix] {
			sh.gen = ms.Gen + 1
		}
		sh.mu.Unlock()
	}
	ix.saveMu.Unlock()
	return nil
}
