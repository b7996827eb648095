package build

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fetch"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/version"
)

// wideRepo builds a 15-node DAG for executor tests: twelve independent
// leaves feeding two mid-level aggregates under one root, so Jobs>1 has
// real parallelism to exploit.
//
//	widetop → {wmid0 → leaf00..leaf05, wmid1 → leaf06..leaf11}
func wideRepo() *repo.Repo {
	r := repo.NewRepo("test.wide")
	add := func(p *pkg.Package, v string) {
		p.WithVersion(v, fetch.Checksum(p.Name, version.MustParse(v)))
		r.MustAdd(p)
	}
	for i := 0; i < 12; i++ {
		add(pkg.New(fmt.Sprintf("leaf%02d", i)).WithBuild("autotools", 2), "1.0")
	}
	mid0 := pkg.New("wmid0").WithBuild("cmake", 4)
	mid1 := pkg.New("wmid1").WithBuild("cmake", 4)
	for i := 0; i < 6; i++ {
		mid0.DependsOn(fmt.Sprintf("leaf%02d", i))
		mid1.DependsOn(fmt.Sprintf("leaf%02d", i+6))
	}
	add(mid0, "2.0")
	add(mid1, "2.0")
	top := pkg.New("widetop").WithBuild("autotools", 6).
		DependsOn("wmid0").DependsOn("wmid1")
	add(top, "3.0")
	return r
}

func buildWide(t *testing.T, jobs int) *Result {
	t.Helper()
	b, c := newTestBuilder(t, wideRepo())
	b.Jobs = jobs
	res, err := b.Build(concretizeExpr(t, c, "widetop"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 15 {
		t.Fatalf("reports = %d, want 15", len(res.Reports))
	}
	if b.Store.Len() != 15 {
		t.Fatalf("store = %d records, want 15", b.Store.Len())
	}
	return res
}

// TestParallelTopologicalOrder runs the wide DAG on four workers and
// checks that completion order respects every dependency edge: no node
// finishes before all of its dependencies have.
func TestParallelTopologicalOrder(t *testing.T) {
	res := buildWide(t, 4)
	var walk func(n *spec.Spec)
	walk = func(n *spec.Spec) {
		for _, d := range n.DirectDeps() {
			if res.Report(d.Name).Order >= res.Report(n.Name).Order {
				t.Errorf("%s (order %d) finished before its dependency %s (order %d)",
					n.Name, res.Report(n.Name).Order, d.Name, res.Report(d.Name).Order)
			}
			walk(d)
		}
	}
	walk(res.Root)
}

// TestJobsEquivalence asserts a Jobs=4 run of the wide DAG produces the
// identical Result as Jobs=1: same report set, same prefixes, same
// per-node virtual times, same total. Only the makespan may differ.
func TestJobsEquivalence(t *testing.T) {
	serial := buildWide(t, 1)
	par := buildWide(t, 4)

	if len(serial.Reports) != len(par.Reports) {
		t.Fatalf("report sets differ: %d vs %d", len(serial.Reports), len(par.Reports))
	}
	for name, s := range serial.Reports {
		p, ok := par.Reports[name]
		if !ok {
			t.Errorf("%s missing from parallel run", name)
			continue
		}
		if s.Prefix != p.Prefix {
			t.Errorf("%s prefix differs: %s vs %s", name, s.Prefix, p.Prefix)
		}
		if s.Time != p.Time {
			t.Errorf("%s time differs: %v vs %v", name, s.Time, p.Time)
		}
		if s.Reused != p.Reused || s.External != p.External || s.Fetched != p.Fetched {
			t.Errorf("%s flags differ: %+v vs %+v", name, s, p)
		}
		if s.WrapperOverhead != p.WrapperOverhead {
			t.Errorf("%s wrapper overhead differs: %v vs %v", name, s.WrapperOverhead, p.WrapperOverhead)
		}
	}
	if serial.TotalTime != par.TotalTime {
		t.Errorf("total time differs: %v vs %v", serial.TotalTime, par.TotalTime)
	}

	// Serial wall time is the full sum; four workers on twelve
	// independent leaves must beat it.
	if serial.WallTime != serial.TotalTime {
		t.Errorf("serial wall %v != total %v", serial.WallTime, serial.TotalTime)
	}
	if par.WallTime >= serial.WallTime {
		t.Errorf("parallel makespan %v not below serial %v", par.WallTime, serial.WallTime)
	}
	// The makespan can never beat the critical path or perfect speedup.
	if par.WallTime < serial.TotalTime/4 {
		t.Errorf("parallel makespan %v below perfect 4-way speedup of %v", par.WallTime, serial.TotalTime)
	}
}

// TestJobsDeterminism: the virtual clock makes repeated parallel runs
// byte-identical in everything but goroutine interleaving.
func TestJobsDeterminism(t *testing.T) {
	a := buildWide(t, 4)
	b := buildWide(t, 4)
	if a.WallTime != b.WallTime || a.TotalTime != b.TotalTime {
		t.Errorf("two identical runs disagree: wall %v/%v total %v/%v",
			a.WallTime, b.WallTime, a.TotalTime, b.TotalTime)
	}
	for name := range a.Reports {
		if a.Report(name).Time != b.Report(name).Time {
			t.Errorf("%s time varies across runs: %v vs %v",
				name, a.Report(name).Time, b.Report(name).Time)
		}
	}
}

// TestConcurrentBuildsSharedStore hammers one builder from several
// goroutines (go test -race makes this meaningful): everyone must
// succeed, and the store must end with exactly one record per node.
func TestConcurrentBuildsSharedStore(t *testing.T) {
	b, c := newTestBuilder(t, wideRepo())
	b.Jobs = 4
	concrete := concretizeExpr(t, c, "widetop")

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	results := make([]*Result, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Build(concrete)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if b.Store.Len() != 15 {
		t.Errorf("store = %d records, want 15", b.Store.Len())
	}
	for i, res := range results {
		for name, rep := range res.Reports {
			if rec, ok := b.Store.Lookup(res.Root.Dep(name)); !ok || rec.Prefix != rep.Prefix {
				t.Errorf("client %d: %s prefix %s not the store's record", i, name, rep.Prefix)
			}
		}
	}
}

// TestScheduleMakespanBounds exercises the list scheduler directly on the
// wide DAG's shape with synthetic durations.
func TestScheduleMakespanBounds(t *testing.T) {
	b, c := newTestBuilder(t, wideRepo())
	_ = b
	root := concretizeExpr(t, c, "widetop")
	nodes := root.TopoOrder()
	dur := make(map[string]time.Duration, len(nodes))
	var total time.Duration
	for _, n := range nodes {
		dur[n.Name] = time.Second
		total += time.Second
	}
	plan := newReadiness(nodes)
	if got := plan.makespan(dur, 1); got != total {
		t.Errorf("jobs=1 makespan %v, want serial %v", got, total)
	}
	// Unbounded workers: the critical path is leaf → mid → top = 3s.
	if got := plan.makespan(dur, len(nodes)); got != 3*time.Second {
		t.Errorf("unbounded makespan %v, want 3s critical path", got)
	}
	// Four workers: 12 leaves take 3 rounds, then mids, then top = 5s.
	if got := plan.makespan(dur, 4); got != 5*time.Second {
		t.Errorf("jobs=4 makespan %v, want 5s", got)
	}
	bounded := plan.makespan(dur, 4)
	if bounded > total || bounded < 3*time.Second {
		t.Errorf("makespan %v outside [critical path, serial]", bounded)
	}
}

// scheduleMakespan is the list scheduler as it stood before the executor
// and the schedule shared one readiness plan; it builds its own tables
// from the nodes and is kept as the oracle for readiness.makespan.
func scheduleMakespan(nodes []*spec.Spec, dur map[string]time.Duration, jobs int) time.Duration {
	indeg := make(map[string]int, len(nodes))
	dependents := make(map[string][]string, len(nodes))
	var ready []string
	for _, n := range nodes {
		deps := n.DirectDeps()
		indeg[n.Name] = len(deps)
		for _, d := range deps {
			dependents[d.Name] = append(dependents[d.Name], n.Name)
		}
		if len(deps) == 0 {
			ready = append(ready, n.Name)
		}
	}
	sort.Strings(ready)

	type task struct {
		end  time.Duration
		name string
	}
	var running []task
	var now, makespan time.Duration
	for len(ready) > 0 || len(running) > 0 {
		for len(running) < jobs && len(ready) > 0 {
			name := ready[0]
			ready = ready[1:]
			running = append(running, task{end: now + dur[name], name: name})
		}
		best := 0
		for i, tk := range running {
			if tk.end < running[best].end ||
				(tk.end == running[best].end && tk.name < running[best].name) {
				best = i
			}
		}
		done := running[best]
		running = append(running[:best], running[best+1:]...)
		now = done.end
		if now > makespan {
			makespan = now
		}
		released := dependents[done.name]
		sort.Strings(released)
		for _, dep := range released {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
		sort.Strings(ready)
	}
	return makespan
}

// randomRepo builds a repository of n packages whose dependency edges
// are drawn at random (each package may depend on any earlier one), under
// one root "rtop" that depends on every package nothing else needs.
func randomRepo(rng *rand.Rand, n int) *repo.Repo {
	r := repo.NewRepo("test.random")
	needed := make(map[int]bool)
	for i := 0; i < n; i++ {
		p := pkg.New(fmt.Sprintf("r%02d", i)).WithBuild("autotools", 1+rng.Intn(9))
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				p.DependsOn(fmt.Sprintf("r%02d", j))
				needed[j] = true
			}
		}
		p.WithVersion("1.0", fetch.Checksum(p.Name, version.MustParse("1.0")))
		r.MustAdd(p)
	}
	top := pkg.New("rtop").WithBuild("autotools", 2)
	for i := 0; i < n; i++ {
		if !needed[i] {
			top.DependsOn(fmt.Sprintf("r%02d", i))
		}
	}
	top.WithVersion("1.0", fetch.Checksum("rtop", version.MustParse("1.0")))
	r.MustAdd(top)
	return r
}

// TestWallTimeMatchesOracle: on random DAGs at 1–8 jobs, a build's
// WallTime equals the standalone list scheduler run on the same nodes and
// per-node times, and so does the shared plan on random durations.
func TestWallTimeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 4; trial++ {
		r := randomRepo(rng, 6+rng.Intn(10))
		for jobs := 1; jobs <= 8; jobs++ {
			b, c := newTestBuilder(t, r)
			b.Jobs = jobs
			root := concretizeExpr(t, c, "rtop")
			res, err := b.Build(root)
			if err != nil {
				t.Fatal(err)
			}
			nodes := root.TopoOrder()
			dur := make(map[string]time.Duration, len(nodes))
			for name, rep := range res.Reports {
				dur[name] = rep.Time
			}
			if want := scheduleMakespan(nodes, dur, jobs); res.WallTime != want {
				t.Fatalf("trial %d jobs %d: WallTime %v, oracle %v", trial, jobs, res.WallTime, want)
			}
			for name := range dur {
				dur[name] = time.Duration(1+rng.Intn(5)) * time.Second
			}
			if got, want := newReadiness(nodes).makespan(dur, jobs), scheduleMakespan(nodes, dur, jobs); got != want {
				t.Fatalf("trial %d jobs %d: makespan %v, oracle %v", trial, jobs, got, want)
			}
		}
	}
}
