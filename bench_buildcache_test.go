// Binary-cache benchmarks (run via `make bench-buildcache` →
// BENCH_buildcache.json):
//
//	BenchmarkBuildcacheARES/{source,cached}/j8 — install the 47-package
//	    ARES stack (Fig. 13's production code) on a fresh machine, either
//	    compiling every node from source or pulling relocatable archives
//	    from a shared binary cache seeded once by a build machine. The
//	    cached leg pays checksum verification + relocation instead of
//	    fetch/stage/compile, which is where buildcaches earn their keep:
//	    the acceptance bar (enforced by `benchjson -check`) is
//	    buildcache_speedup_j8 ≥ 5.
package repro

import (
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/fetch"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

var (
	bcOnce    sync.Once
	bcPath    *repo.Path        // ARES + builtin package path, shared read-only
	bcSpec    *spec.Spec        // concretized ARES DAG, shared read-only
	bcSources *fetch.Mirror     // published source archives, shared read-only
	bcCache   *buildcache.Cache // seeded once from a throwaway build machine
	bcNodes   int               // non-external DAG nodes = expected cache hits
	bcErr     error
)

// bcSetup concretizes ARES once, builds it from source on a seed machine,
// and pushes the full DAG into a mirror-backed cache. Every benchmark
// iteration then starts a brand-new machine (fresh simfs + store) so no
// state leaks between iterations; only the immutable package path and
// mirrors are shared, so the timed loop pays for the install alone.
func bcSetup() {
	bcOnce.Do(func() {
		bcPath = repo.NewPath(ares.Repo(), repo.Builtin())
		c := concretize.New(bcPath, config.New(), compiler.LLNLRegistry())
		bcSpec, bcErr = c.Concretize(syntax.MustParse(ares.Current.Spec()))
		if bcErr != nil {
			return
		}
		bcSources = fetch.NewMirror()
		repo.PublishAll(bcSources, ares.Repo(), repo.Builtin())

		seed := newBenchMachine(nil)
		if _, bcErr = seed.Build(bcSpec); bcErr != nil {
			return
		}
		bcCache = buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
		if _, bcErr = bcCache.PushDAG(seed.Store, bcSpec); bcErr != nil {
			return
		}
		for _, n := range bcSpec.TopoOrder() {
			if !n.External {
				bcNodes++
			}
		}
	})
}

// newBenchMachine is one fresh install target: its own filesystem and
// store, the shared package path and source mirror, and optionally the
// shared cache.
func newBenchMachine(cache *buildcache.Cache) *build.Builder {
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		panic(err)
	}
	b := build.NewBuilder(st, bcPath, compiler.LLNLRegistry())
	b.Mirror = bcSources
	b.Config = config.New()
	b.Jobs = 8
	b.Cache = cache
	if cache == nil {
		b.CachePolicy = build.CacheNever
	}
	return b
}

func BenchmarkBuildcacheARES(b *testing.B) {
	bcSetup()
	if bcErr != nil {
		b.Fatal(bcErr)
	}
	b.Run("source/j8", func(b *testing.B) {
		var virtual float64
		for i := 0; i < b.N; i++ {
			m := newBenchMachine(nil)
			res, err := m.Build(bcSpec)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != 0 {
				b.Fatalf("source leg hit the cache %d times", res.CacheHits)
			}
			virtual = res.WallTime.Seconds()
		}
		b.ReportMetric(virtual, "virtual-sec")
		b.ReportMetric(float64(bcSpec.Size()), "dag-nodes")
	})
	b.Run("cached/j8", func(b *testing.B) {
		var virtual float64
		for i := 0; i < b.N; i++ {
			m := newBenchMachine(bcCache)
			res, err := m.Build(bcSpec)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != bcNodes {
				b.Fatalf("cache hits = %d, want %d (misses %d, fallbacks %d)",
					res.CacheHits, bcNodes, res.CacheMisses, res.CacheFallbacks)
			}
			virtual = res.WallTime.Seconds()
		}
		b.ReportMetric(virtual, "virtual-sec")
		b.ReportMetric(float64(bcSpec.Size()), "dag-nodes")
	})
}

// TestBuildcacheBenchSanity keeps the bench wiring honest under plain
// `go test`: the cached machine must install the identical DAG the
// source machine does, from binaries alone.
func TestBuildcacheBenchSanity(t *testing.T) {
	bcSetup()
	if bcErr != nil {
		t.Fatal(bcErr)
	}
	m := newBenchMachine(bcCache)
	m.CachePolicy = build.CacheOnly
	res, err := m.Build(bcSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != bcNodes {
		t.Fatalf("cache hits = %d, want %d", res.CacheHits, bcNodes)
	}
	for _, n := range bcSpec.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := m.Store.Lookup(n)
		if !ok {
			t.Fatalf("%s missing after cache-only install", n.Name)
		}
		if rec.Origin != store.OriginBinary {
			t.Fatalf("%s origin = %q, want %q", n.Name, rec.Origin, store.OriginBinary)
		}
	}
}
