package concretize

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// concurrently runs f(i) for i in [0, n) at once and waits for all.
func concurrently(n int, f func(i int)) {
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			f(i)
		}()
	}
	start.Done()
	done.Wait()
}

// TestConcurrentMissesCoalesce: 64 concurrent calls for one cold key, from
// two concretizers sharing a Cache, run one solve. Every caller gets the
// same DAG: the solving caller its own result, and every other caller the
// cache entry's one frozen DAG, which each hashes at once and none can
// change; a Clone of it can be changed and leaves the entry as it was.
func TestConcurrentMissesCoalesce(t *testing.T) {
	a, _ := cachedEnv(DefaultCacheSize)
	b := New(a.Path, a.Config, a.Registry)
	b.Cache = a.Cache
	const n = 64
	outs := make([]*spec.Spec, n)
	cached := make([]bool, n)
	errs := make([]error, n)
	hashes := make([]string, n)
	concurrently(n, func(i int) {
		c := a
		if i%2 == 1 {
			c = b
		}
		outs[i], cached[i], errs[i] = c.ConcretizeCached(syntax.MustParse("mpileaks ^mvapich2"))
		if errs[i] == nil {
			hashes[i] = outs[i].FullHash()
			for _, node := range outs[i].Nodes() {
				node.FullHash()
			}
		}
	})
	var shared *spec.Spec
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if hashes[i] != hashes[0] {
			t.Errorf("call %d: hash %s, call 0 %s", i, hashes[i], hashes[0])
		}
		if !cached[i] {
			continue
		}
		if shared == nil {
			shared = out
		} else if out != shared {
			t.Fatalf("call %d got a DAG of its own: every hit shares the cache entry", i)
		}
	}
	if shared == nil {
		t.Fatal("no call was a hit")
	}
	if !panics(func() { shared.Dep("mvapich2").SetVariant("coalesce-test", true) }) {
		t.Error("a mutator on a shared hit did not panic")
	}
	// A Clone copies no memo, so a second one rehashes the hit's fields.
	clone := shared.Clone()
	clone.Dep("mvapich2").SetVariant("coalesce-test", true)
	if clone.FullHash() == hashes[0] || shared.FullHash() != hashes[0] || shared.Clone().FullHash() != hashes[0] {
		t.Errorf("changing a clone of the shared hit: clone %s, hit %s, want the hit at %s",
			clone.FullHash(), shared.FullHash(), hashes[0])
	}
	misses := a.Stats.CacheMisses() + b.Stats.CacheMisses()
	hits := a.Stats.CacheHits() + b.Stats.CacheHits()
	if misses != 1 || hits != n-1 {
		t.Errorf("misses = %d, hits = %d; want 1 and %d", misses, hits, n-1)
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestConcurrentUnsatShared: concurrent calls for one unsatisfiable input
// all fail with the minimal core, and a failure is never stored.
func TestConcurrentUnsatShared(t *testing.T) {
	c := backtrackEnv()
	c.Backtracking = true
	c.Cache = NewCache(0)
	const n = 16
	errs := make([]error, n)
	concurrently(n, func(i int) {
		_, _, errs[i] = c.ConcretizeCached(syntax.MustParse("ptool ^hwloc2@1.7"))
	})
	var first []string
	for i, err := range errs {
		var unsat *UnsatError
		if !errors.As(err, &unsat) {
			t.Fatalf("call %d: want UnsatError, got %v", i, err)
		}
		if i == 0 {
			first = unsat.CoreStrings()
		} else if !slices.Equal(unsat.CoreStrings(), first) {
			t.Errorf("call %d: core %v, call 0 %v", i, unsat.CoreStrings(), first)
		}
	}
	if c.Cache.Len() != 0 || c.Stats.CacheHits() != 0 {
		t.Errorf("a failure was stored: %d entries, %d hits", c.Cache.Len(), c.Stats.CacheHits())
	}
}

// TestMemoKeyEqualityUnchanged: keying the abstract input on its canonical
// form instead of its FullHash leaves key equality as it was: over every
// Fig. 8 and ARES input, each also parsed a second time from its own
// rendering, two inputs share a key exactly when their FullHash keys
// matched.
func TestMemoKeyEqualityUnchanged(t *testing.T) {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	path := repo.NewPath(ares.Repo(), synth, repo.Builtin())
	c := New(path, config.New(), compiler.LLNLRegistry())
	var inputs []*spec.Spec
	for _, name := range path.Names() {
		inputs = append(inputs, spec.New(name))
	}
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			inputs = append(inputs, syntax.MustParse(ares.SpecFor(cell, cfg)))
		}
	}
	for _, in := range slices.Clone(inputs) {
		inputs = append(inputs, syntax.MustParse(in.String()))
	}
	oldKeys := make([]Key, len(inputs))
	newKeys := make([]Key, len(inputs))
	for i, in := range inputs {
		newKeys[i] = c.cacheKey(in, nil)
		oldKeys[i] = newKeys[i]
		oldKeys[i].Spec = in.FullHash()
	}
	shared := 0
	for i := range inputs {
		for j := i + 1; j < len(inputs); j++ {
			was, is := oldKeys[i] == oldKeys[j], newKeys[i] == newKeys[j]
			if was != is {
				t.Fatalf("%q and %q: FullHash keys equal = %v, canonical keys equal = %v",
					inputs[i], inputs[j], was, is)
			}
			if is {
				shared++
			}
		}
	}
	if shared < len(inputs)/2 {
		t.Errorf("only %d key-sharing pairs among %d inputs: the re-parsed copies should match", shared, len(inputs))
	}
}

// TestConfigChangeAfterHitMisses: a preference set through a Scope setter
// after a memo hit changes the configuration fingerprint, so the next
// Concretize misses and honours it.
func TestConfigChangeAfterHitMisses(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	before := mustConcretize(t, c, "libdwarf")
	mustConcretize(t, c, "libdwarf")
	if c.Stats.CacheHits() != 1 || c.Stats.CacheMisses() != 1 {
		t.Fatalf("hits = %d, misses = %d before the change; want 1 and 1",
			c.Stats.CacheHits(), c.Stats.CacheMisses())
	}
	if err := c.Config.User.PreferVersion("libelf", "0.8.12"); err != nil {
		t.Fatal(err)
	}
	after := mustConcretize(t, c, "libdwarf")
	if c.Stats.CacheMisses() != 2 {
		t.Errorf("misses = %d after the change, want 2", c.Stats.CacheMisses())
	}
	if v := after.Dep("libelf").Versions.String(); v != "0.8.12" || before.FullHash() == after.FullHash() {
		t.Errorf("libelf@%s after preferring 0.8.12 (hash %s, before %s)", v, after.FullHash(), before.FullHash())
	}
}
