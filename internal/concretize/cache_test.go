package concretize

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/syntax"
)

// cachedEnv builds the standard test environment with a memo cache
// attached, returning the repo so tests can mutate it.
func cachedEnv(size int) (*Concretizer, *repo.Repo) {
	r := repo.Builtin()
	c := New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
	c.Cache = NewCache(size)
	return c, r
}

// TestCacheHitReturnsSameResult verifies the memoized fast path returns a
// DAG identical to a fresh solve and that the stats account for it.
func TestCacheHitReturnsSameResult(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	first := mustConcretize(t, c, "mpileaks ^mvapich2")
	second := mustConcretize(t, c, "mpileaks ^mvapich2")

	if first.FullHash() != second.FullHash() {
		t.Errorf("cached result differs: %s vs %s", first.FullHash(), second.FullHash())
	}
	if got := c.Stats.CacheHits(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if got := c.Stats.CacheMisses(); got != 1 {
		t.Errorf("CacheMisses = %d, want 1", got)
	}
}

// TestCacheHitIsDeepClone verifies the cache is insulated in both
// directions: mutating the spec that populated the cache must not poison
// later hits, and neither must mutating a Clone of a hit (a hit itself is
// the entry's shared, frozen DAG).
func TestCacheHitIsDeepClone(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)

	first := mustConcretize(t, c, "mpileaks")
	want := first.FullHash()
	// Vandalize the result that populated the cache, root and deep node.
	first.Name = "vandalized"
	if dep := first.Dep("libelf"); dep != nil {
		dep.Name = "vandalized-dep"
	}

	second := mustConcretize(t, c, "mpileaks")
	if second.FullHash() != want {
		t.Fatalf("cache poisoned by mutating the inserted spec:\n%s", second.TreeString())
	}
	// Vandalize a clone of the hit; the next hit must still be pristine.
	second.Clone().Dep("callpath").Name = "vandalized"
	third := mustConcretize(t, c, "mpileaks")
	if third.FullHash() != want {
		t.Fatalf("cache poisoned by mutating a returned hit:\n%s", third.TreeString())
	}
}

// TestCacheRepoInvalidation verifies that changing the repository (a new
// package definition) changes the fingerprint and bypasses stale entries.
func TestCacheRepoInvalidation(t *testing.T) {
	c, r := cachedEnv(DefaultCacheSize)
	mustConcretize(t, c, "mpileaks")

	r.MustAdd(pkg.New("freshly-added").WithVersion("1.0", "0123456789abcdef"))
	mustConcretize(t, c, "mpileaks")

	if got := c.Stats.CacheHits(); got != 0 {
		t.Errorf("CacheHits = %d, want 0 after repo change", got)
	}
	if got := c.Stats.CacheMisses(); got != 2 {
		t.Errorf("CacheMisses = %d, want 2 after repo change", got)
	}
}

// TestCacheConfigInvalidation verifies that a site-policy change (MPI
// provider preference) changes the fingerprint and yields a fresh solve
// honoring the new policy rather than the stale cached DAG.
func TestCacheConfigInvalidation(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	before := mustConcretize(t, c, "mpileaks")

	c.Config.Site.SetProviderOrder("mpi", "openmpi")
	after := mustConcretize(t, c, "mpileaks")

	if got := c.Stats.CacheHits(); got != 0 {
		t.Errorf("CacheHits = %d, want 0 after config change", got)
	}
	if after.Dep("openmpi") == nil {
		t.Errorf("stale cache ignored new provider order:\n%s", after.TreeString())
	}
	if before.FullHash() == after.FullHash() {
		t.Errorf("provider-order change produced an identical DAG")
	}
}

// TestCacheLRUEviction verifies the bound: with capacity 2, a third
// distinct entry evicts the least recently used one.
func TestCacheLRUEviction(t *testing.T) {
	c, _ := cachedEnv(2)
	mustConcretize(t, c, "libelf")   // resident: [libelf]
	mustConcretize(t, c, "libdwarf") // resident: [libdwarf libelf]
	mustConcretize(t, c, "zlib")     // evicts libelf
	mustConcretize(t, c, "libelf")   // miss; evicts libdwarf
	mustConcretize(t, c, "zlib")     // still resident: hit

	if got := c.Cache.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	st := c.Cache.Stats()
	if st.Evictions < 1 {
		t.Errorf("Evictions = %d, want >= 1", st.Evictions)
	}
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want exactly 1 (the resident zlib)", st.Hits)
	}
}

// TestCacheModeSeparation verifies greedy and backtracking solves never
// share entries: the mode is part of the key.
func TestCacheModeSeparation(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	greedy := mustConcretize(t, c, "mpileaks")
	c.Backtracking = true
	back := mustConcretize(t, c, "mpileaks")

	if got := c.Stats.CacheHits(); got != 0 {
		t.Errorf("CacheHits = %d, want 0 across modes", got)
	}
	if got := c.Stats.CacheMisses(); got != 2 {
		t.Errorf("CacheMisses = %d, want 2 across modes", got)
	}
	if got := c.Cache.Len(); got != 2 {
		t.Errorf("Len = %d, want one entry per mode", got)
	}
	// Both modes agree on an unconflicted spec, but via separate entries.
	if greedy.FullHash() != back.FullHash() {
		t.Errorf("modes disagree on a conflict-free spec")
	}
}

// TestCachePersistence round-trips the cache through its JSON form and
// verifies a fresh concretizer answers from the warmed copy.
func TestCachePersistence(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	want := mustConcretize(t, c, "mpileaks ^mvapich2").FullHash()

	var buf bytes.Buffer
	if err := c.Cache.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	warm, _ := cachedEnv(DefaultCacheSize)
	if err := warm.Cache.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := mustConcretize(t, warm, "mpileaks ^mvapich2")
	if warm.Stats.CacheHits() != 1 {
		t.Errorf("warmed cache missed: hits=%d misses=%d",
			warm.Stats.CacheHits(), warm.Stats.CacheMisses())
	}
	if got.FullHash() != want {
		t.Errorf("persisted result differs: %s vs %s", got.FullHash(), want)
	}
}

// TestCachePersistenceFiles exercises the real-filesystem helpers used by
// cmd/spack-go to warm across processes, including the missing-file case.
func TestCachePersistenceFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")

	fresh := NewCache(DefaultCacheSize)
	if err := fresh.LoadFile(path); err != nil {
		t.Fatalf("LoadFile on missing file: %v", err)
	}

	c, _ := cachedEnv(DefaultCacheSize)
	want := mustConcretize(t, c, "dyninst").FullHash()
	if err := c.Cache.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	warm, _ := cachedEnv(DefaultCacheSize)
	if err := warm.Cache.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	got := mustConcretize(t, warm, "dyninst")
	if warm.Stats.CacheHits() != 1 || got.FullHash() != want {
		t.Errorf("file-warmed cache: hits=%d hash=%s want=%s",
			warm.Stats.CacheHits(), got.FullHash(), want)
	}
}

// TestCacheDisabled verifies a nil cache leaves behavior untouched.
func TestCacheDisabled(t *testing.T) {
	c := testEnv()
	a := mustConcretize(t, c, "mpileaks")
	b := mustConcretize(t, c, "mpileaks")
	if a.FullHash() != b.FullHash() {
		t.Errorf("uncached solves diverge")
	}
	if c.Stats.CacheHits() != 0 || c.Stats.CacheMisses() != 0 {
		t.Errorf("nil cache recorded traffic: hits=%d misses=%d",
			c.Stats.CacheHits(), c.Stats.CacheMisses())
	}
}

// TestCacheKeyComponents pins down what the key derives from, so an
// accidentally dropped fingerprint fails loudly.
func TestCacheKeyComponents(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	abstract := syntax.MustParse("mpileaks")
	base := c.cacheKey(abstract, nil)

	if base.Spec != abstract.Canonical() {
		t.Errorf("key.Spec = %q, want the abstract canonical form %q", base.Spec, abstract.Canonical())
	}
	if base.Repo == "" || base.Config == "" || base.Compilers == "" {
		t.Errorf("key has empty fingerprint components: %+v", base)
	}
	if base.Mode != "greedy" {
		t.Errorf("key.Mode = %q, want greedy", base.Mode)
	}
	c.Backtracking = true
	if got := c.cacheKey(abstract, nil).Mode; got != "backtracking" {
		t.Errorf("key.Mode = %q, want backtracking", got)
	}
}
