// Benchmarks regenerating the paper's evaluation, one per table/figure
// (run `go test -bench=. -benchmem`):
//
//	BenchmarkTable1NamingSchemes   — rendering the four site layouts
//	BenchmarkTable2SpecParsing     — parsing the Table 2 spec corpus
//	BenchmarkTable3ARESMatrix      — concretizing all 36 ARES configurations
//	BenchmarkFig2ConstraintMerge   — abstract-spec constraint intersection
//	BenchmarkFig5VirtualProviders  — versioned provider resolution
//	BenchmarkFig7ConcretizeMpileaks— the canonical mpileaks concretization
//	BenchmarkFig8ConcretizeAll     — concretizing a 245-package repository
//	BenchmarkFig8LargestDAG        — the worst-case (tail) DAG of Fig. 8
//	BenchmarkConcretizeScale/*     — 100- and 800-package chains and fan-3 DAGs
//	BenchmarkFig9SharedSubDAG      — two mpileaks installs with store reuse
//	BenchmarkFig10Build/*          — the seven builds under each condition
//	BenchmarkFig13ARESConcretize   — the 47-package ARES DAG
//	BenchmarkARESConcretizeGreedyCold — the 36-config matrix, cold greedy
//	BenchmarkARESConcretizeReuse   — the same matrix re-solved with -reuse
//	BenchmarkAblation*             — greedy vs. backtracking concretization
//
// Each benchmark reports the relevant domain metric (virtual build time,
// DAG sizes) via b.ReportMetric where wall time alone would be misleading.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

// BenchmarkTable1NamingSchemes renders a concretized spec under each of
// Table 1's conventions.
func BenchmarkTable1NamingSchemes(b *testing.B) {
	s := core.MustNew()
	concrete, err := s.Spec("mpileaks ^mvapich2@2.0")
	if err != nil {
		b.Fatal(err)
	}
	layouts := []store.Layout{
		store.LLNLLayout{}, store.ORNLLayout{},
		store.TACCLayout{IsMPI: s.IsMPI}, store.SpackLayout{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layouts {
			if l.RelPath(concrete) == "" {
				b.Fatal("empty path")
			}
		}
	}
}

var table2Corpus = []string{
	"mpileaks",
	"mpileaks@1.1.2",
	"mpileaks@1.1.2 %gcc",
	"mpileaks@1.1.2 %intel@14.1 +debug",
	"mpileaks@1.1.2 =bgq",
	"mpileaks@1.1.2 ^mvapich2@1.9",
	"mpileaks @1.2:1.4 %gcc@4.7.5 -debug =bgq ^callpath @1.1 %gcc@4.7.2 ^openmpi @1.4.7",
}

// BenchmarkTable2SpecParsing parses the Table 2 corpus.
func BenchmarkTable2SpecParsing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, expr := range table2Corpus {
			if _, err := syntax.Parse(expr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2ConstraintMerge intersects user constraints into a package
// DAG (the first stage of Fig. 6).
func BenchmarkFig2ConstraintMerge(b *testing.B) {
	base := syntax.MustParse("mpileaks ^callpath ^dyninst ^libdwarf ^libelf")
	extra := syntax.MustParse("mpileaks@2.3 ^callpath@1.0+debug ^libelf@0.8.12")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		if err := c.Constrain(extra); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5VirtualProviders resolves versioned virtual constraints
// against the provider index.
func BenchmarkFig5VirtualProviders(b *testing.B) {
	path := repo.NewPath(repo.Builtin())
	queries := []*spec.Spec{
		syntax.MustParse("mpi"),
		syntax.MustParse("mpi@2:"),
		syntax.MustParse("mpi@:1"),
		syntax.MustParse("blas"),
		syntax.MustParse("lapack"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if len(path.ProvidersFor(q)) == 0 {
				b.Fatal("no providers")
			}
		}
	}
}

// BenchmarkFig7ConcretizeMpileaks is the paper's canonical concretization.
func BenchmarkFig7ConcretizeMpileaks(b *testing.B) {
	c := concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
	abstract := syntax.MustParse("mpileaks ^mvapich2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Concretize(abstract); err != nil {
			b.Fatal(err)
		}
	}
}

// fig8Path builds the 245-package repository of Fig. 8.
func fig8Path() *repo.Path {
	synth := repo.NewRepo("synthetic")
	base := repo.Builtin().Len() + ares.Repo().Len()
	repo.Synthesize(synth, 245-base, 2015)
	return repo.NewPath(ares.Repo(), synth, repo.Builtin())
}

// BenchmarkFig8ConcretizeAll concretizes every package of the 245-package
// repository once per iteration — the full Fig. 8 workload.
func BenchmarkFig8ConcretizeAll(b *testing.B) {
	path := fig8Path()
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	names := path.Names()
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes = 0
		for _, name := range names {
			out, err := c.Concretize(spec.New(name))
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			nodes += out.Size()
		}
	}
	b.ReportMetric(float64(len(names)), "packages")
	b.ReportMetric(float64(nodes), "dag-nodes")
}

// BenchmarkFig8ConcretizeAllWarm is the same Fig. 8 sweep answered from a
// pre-warmed memo cache: every Concretize is a fingerprint check plus one
// DAG clone. The acceptance bar for the fast path is >= 10x over the cold
// BenchmarkFig8ConcretizeAll.
func BenchmarkFig8ConcretizeAllWarm(b *testing.B) {
	path := fig8Path()
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	c.Cache = concretize.NewCache(concretize.DefaultCacheSize)
	names := path.Names()
	abstracts := make([]*spec.Spec, len(names))
	for i, name := range names {
		abstracts[i] = spec.New(name)
	}
	// Warm every entry before timing.
	for _, a := range abstracts {
		if _, err := c.Concretize(a); err != nil {
			b.Fatal(err)
		}
	}
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes = 0
		for _, a := range abstracts {
			out, err := c.Concretize(a)
			if err != nil {
				b.Fatal(err)
			}
			nodes += out.Size()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(names)), "packages")
	b.ReportMetric(float64(nodes), "dag-nodes")
	st := c.Cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
}

// BenchmarkFig8ConcretizeAllParallel runs the cold Fig. 8 sweep through
// the batch worker pool (no cache, so every iteration is all fresh
// solves) — the wall-clock win of parallel batch concretization.
func BenchmarkFig8ConcretizeAllParallel(b *testing.B) {
	path := fig8Path()
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	names := path.Names()
	abstracts := make([]*spec.Spec, len(names))
	for i, name := range names {
		abstracts[i] = spec.New(name)
	}
	b.ReportMetric(float64(len(names)), "packages")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ConcretizeAll(abstracts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcretizeCacheHit isolates the per-hit cost of the memo
// cache: one key derivation (spec hash + three fingerprints) and one
// deep clone of the mpileaks DAG.
func BenchmarkConcretizeCacheHit(b *testing.B) {
	c := concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
	c.Cache = concretize.NewCache(concretize.DefaultCacheSize)
	abstract := syntax.MustParse("mpileaks ^mvapich2")
	if _, err := c.Concretize(abstract); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Concretize(abstract); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8LargestDAG concretizes only the largest DAG in the
// repository (the tail of Fig. 8's curve).
func BenchmarkFig8LargestDAG(b *testing.B) {
	path := fig8Path()
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	// Find the largest once.
	largest, size := "", 0
	for _, name := range path.Names() {
		out, err := c.Concretize(spec.New(name))
		if err != nil {
			b.Fatal(err)
		}
		if out.Size() > size {
			size = out.Size()
			largest = name
		}
	}
	b.ReportMetric(float64(size), "dag-nodes")
	abstract := spec.New(largest)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Concretize(abstract); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleRepo builds a repository of n packages s0001…sNNNN in which each
// package depends on the next fan ones (those that exist): fan 1 is a
// chain n deep, and fan 3 a DAG as deep with three edges per node.
func scaleRepo(n, fan int) *repo.Path {
	r := repo.NewRepo("scale")
	for i := n; i >= 1; i-- {
		p := pkg.New(fmt.Sprintf("s%04d", i)).WithVersion("1.0", "x")
		for j := i + 1; j <= i+fan && j <= n; j++ {
			p.DependsOn(fmt.Sprintf("s%04d", j))
		}
		r.MustAdd(p)
	}
	return repo.NewPath(r)
}

// BenchmarkConcretizeScale concretizes the root of scaleRepo at 100 and
// 800 packages, as a chain and as a fan-3 DAG. Time against nodes is the
// concretizer's scaling: with a fixed point that attached one layer per
// pass, 8x the chain cost about 64x the time.
func BenchmarkConcretizeScale(b *testing.B) {
	for _, shape := range []struct {
		name string
		fan  int
	}{{"chain", 1}, {"fan3", 3}} {
		for _, n := range []int{100, 800} {
			b.Run(fmt.Sprintf("%s/n%d", shape.name, n), func(b *testing.B) {
				c := concretize.New(scaleRepo(n, shape.fan), config.New(), compiler.LLNLRegistry())
				root := spec.New("s0001")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := c.Concretize(root)
					if err != nil {
						b.Fatal(err)
					}
					if out.Size() != n {
						b.Fatalf("%d nodes, want %d", out.Size(), n)
					}
				}
			})
		}
	}
}

// BenchmarkFig9SharedSubDAG measures the two-install reuse scenario: the
// second build must only rebuild the MPI-dependent part.
func BenchmarkFig9SharedSubDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.MustNew()
		if _, err := s.Install("mpileaks ^mpich"); err != nil {
			b.Fatal(err)
		}
		res, err := s.Install("mpileaks ^openmpi")
		if err != nil {
			b.Fatal(err)
		}
		reused := 0
		for _, rep := range res.Reports {
			if rep.Reused {
				reused++
			}
		}
		if reused == 0 {
			b.Fatal("no sub-DAG sharing")
		}
		if i == 0 {
			b.ReportMetric(float64(reused), "reused-prefixes")
		}
	}
}

// BenchmarkFig10Build runs the paper's seven builds under each condition;
// virtual build seconds are reported as the domain metric.
func BenchmarkFig10Build(b *testing.B) {
	packages := []string{"libelf", "libpng", "mpileaks", "libdwarf", "python", "dyninst", "netlib-lapack"}
	conditions := []struct {
		name string
		opts []core.Option
	}{
		{"WrappersNFS", []core.Option{core.WithNFSStage()}},
		{"WrappersTemp", nil},
		{"NoWrappersTemp", []core.Option{core.WithoutWrappers()}},
	}
	for _, pkgName := range packages {
		for _, cond := range conditions {
			b.Run(fmt.Sprintf("%s/%s", pkgName, cond.name), func(b *testing.B) {
				var virtual float64
				for i := 0; i < b.N; i++ {
					s := core.MustNew(cond.opts...)
					res, err := s.Install(pkgName)
					if err != nil {
						b.Fatal(err)
					}
					virtual = res.Report(pkgName).Time.Seconds()
				}
				b.ReportMetric(virtual, "virtual-sec")
			})
		}
	}
}

// BenchmarkFig13ARESConcretize concretizes the 47-package ARES DAG.
func BenchmarkFig13ARESConcretize(b *testing.B) {
	c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	abstract := syntax.MustParse(ares.Current.Spec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.Concretize(abstract)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Size()), "dag-nodes")
		}
	}
}

// BenchmarkTable3ARESMatrix concretizes all 36 nightly configurations.
func BenchmarkTable3ARESMatrix(b *testing.B) {
	c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	var exprs []*spec.Spec
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			exprs = append(exprs, syntax.MustParse(ares.SpecFor(cell, cfg)))
		}
	}
	b.ReportMetric(float64(len(exprs)), "configurations")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			if _, err := c.Concretize(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// aresMatrixSpecs parses the 36 nightly configurations of Table 3.
func aresMatrixSpecs() []*spec.Spec {
	var exprs []*spec.Spec
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			exprs = append(exprs, syntax.MustParse(ares.SpecFor(cell, cfg)))
		}
	}
	return exprs
}

// BenchmarkARESConcretizeGreedyCold is the reuse leg's baseline: the full
// 36-configuration ARES matrix solved cold by the greedy algorithm — no
// memo cache, no reuse source. Reported solved-nodes/sec is the solver
// throughput figure the reuse leg is compared against.
func BenchmarkARESConcretizeGreedyCold(b *testing.B) {
	c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	exprs := aresMatrixSpecs()
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes = 0
		for _, e := range exprs {
			out, err := c.Concretize(e)
			if err != nil {
				b.Fatal(err)
			}
			nodes += out.Size()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(exprs)), "configurations")
	b.ReportMetric(float64(nodes*b.N)/b.Elapsed().Seconds(), "solved-nodes/sec")
}

// BenchmarkARESConcretizeReuse re-concretizes the warm ARES matrix through
// the solver's reuse path: every configuration already "installed" (its DAG
// in the reuse source), so each solve carries pin application and reuse
// accounting on top of propagation. The acceptance bar caps this overhead
// at 2x the cold greedy baseline (derived concretize_reuse_overhead_inv
// >= 0.5 in BENCH_concretize.json).
func BenchmarkARESConcretizeReuse(b *testing.B) {
	path := repo.NewPath(ares.Repo(), repo.Builtin())
	cold := concretize.New(path, config.New(), compiler.LLNLRegistry())
	exprs := aresMatrixSpecs()
	src := &memSource{fp: "ares-full", cands: map[string]*spec.Spec{}}
	for _, e := range exprs {
		out, err := cold.Concretize(e)
		if err != nil {
			b.Fatal(err)
		}
		src.cands[out.FullHash()] = out
	}
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	c.Reuse = src
	// Build the reuse snapshot outside the timed loop: the fingerprint is
	// stable, so the steady state is re-solves, not candidate enumeration.
	if _, err := c.Concretize(exprs[0]); err != nil {
		b.Fatal(err)
	}
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes = 0
		for _, e := range exprs {
			out, err := c.Concretize(e)
			if err != nil {
				b.Fatal(err)
			}
			nodes += out.Size()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(exprs)), "configurations")
	b.ReportMetric(float64(nodes*b.N)/b.Elapsed().Seconds(), "solved-nodes/sec")
	if solved := c.Stats.SolvedNodes(); solved > 0 {
		b.ReportMetric(float64(c.Stats.ReusedNodes())/float64(solved), "reuse-fraction")
	}
}

// ablationEnv reproduces the §4.5 conflict scenario at benchmark scale.
func ablationEnv() *concretize.Concretizer {
	r := repo.NewRepo("ablation")
	hw := pkg.New("hwloc2").Describe("hw").WithVersion("1.9", "x").WithVersion("1.11", "x")
	r.MustAdd(hw)
	a := pkg.New("aaanet").Describe("A").WithVersion("1.0", "x").
		ProvidesVirtual("net", "").DependsOn("hwloc2@1.11")
	r.MustAdd(a)
	bb := pkg.New("bbbnet").Describe("B").WithVersion("1.0", "x").
		ProvidesVirtual("net", "").DependsOn("hwloc2@1.9")
	r.MustAdd(bb)
	p := pkg.New("ptool").Describe("tool").WithVersion("1.0", "x").
		DependsOn("hwloc2@1.9").DependsOn("net")
	r.MustAdd(p)
	return concretize.New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
}

// BenchmarkAblationGreedy measures the paper's greedy algorithm hitting
// the §4.5 conflict (error path).
func BenchmarkAblationGreedy(b *testing.B) {
	c := ablationEnv()
	abstract := syntax.MustParse("ptool")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Concretize(abstract); err == nil {
			b.Fatal("greedy should conflict")
		}
	}
}

// BenchmarkAblationBacktracking measures the future-work extension
// resolving the same conflict by provider search.
func BenchmarkAblationBacktracking(b *testing.B) {
	c := ablationEnv()
	c.Backtracking = true
	abstract := syntax.MustParse("ptool")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Concretize(abstract); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecDAGHash measures the configuration-hash of §3.4.2.
func BenchmarkSpecDAGHash(b *testing.B) {
	c := concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
	concrete, err := c.Concretize(syntax.MustParse("mpileaks"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if concrete.DAGHash() == "" {
			b.Fatal("empty hash")
		}
	}
}

// BenchmarkSatisfies measures the constraint-entailment operator behind
// when= clauses and find queries.
func BenchmarkSatisfies(b *testing.B) {
	c := concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
	concrete, err := c.Concretize(syntax.MustParse("mpileaks ^mvapich2"))
	if err != nil {
		b.Fatal(err)
	}
	query := syntax.MustParse("mpileaks@2: %gcc ^mvapich2@2.0:")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !concrete.Satisfies(query) {
			b.Fatal("should satisfy")
		}
	}
}
