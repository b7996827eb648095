package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ares"
	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// runFig2 shows the three constraint stages of Fig. 2: the unconstrained
// mpileaks DAG, a root version constraint, and recursive dependency
// constraints.
func runFig2() error {
	s := core.MustNew()
	for _, expr := range []string{
		"mpileaks",
		"mpileaks@2.3",
		"mpileaks@2.3 ^callpath@1.0+debug ^libelf@0.8.12",
	} {
		abstract, err := syntax.Parse(expr)
		if err != nil {
			return err
		}
		fmt.Printf("spack install %s\n  abstract: %s\n", expr, abstract)
		concrete, err := s.Spec(expr)
		if err != nil {
			return err
		}
		fmt.Printf("  concrete: %s\n\n", concrete)
	}
	return nil
}

// runFig5 demonstrates versioned virtual dependencies: which providers
// qualify for plain mpi and for gerris's mpi@2: requirement.
func runFig5() error {
	s := core.MustNew()
	for _, virtual := range []string{"mpi", "mpi@2:", "mpi@:1"} {
		names, err := s.Providers(virtual)
		if err != nil {
			return err
		}
		fmt.Printf("providers(%s) = %v\n", virtual, names)
	}
	// gerris needs mpi@2:; forcing mpich must select a 3.x (mpi@:3) build.
	concrete, err := s.Spec("gerris ^mpich")
	if err != nil {
		return err
	}
	m := concrete.Dep("mpich")
	v, _ := m.ConcreteVersion()
	fmt.Printf("\ngerris ^mpich concretizes with mpich@%s (mpich 1.x provides only mpi@:1)\n", v)
	if _, err := s.Spec("gerris ^mpich@1.4.1"); err != nil {
		fmt.Printf("gerris ^mpich@1.4.1 correctly fails: %v\n", err)
	}
	return nil
}

// runFig7 prints the fully concretized mpileaks DAG of Fig. 7.
func runFig7() error {
	s := core.MustNew()
	concrete, err := s.Spec("mpileaks ^mvapich2")
	if err != nil {
		return err
	}
	fmt.Print(concrete.TreeString())
	fmt.Printf("\nconcrete: %v   nodes: %d   hash: %s\n",
		concrete.Concrete(), concrete.Size(), concrete.DAGHash())
	return nil
}

// machineProfiles reproduce Fig. 8's three cluster front-ends: times are
// measured on the host and scaled by the relative single-thread speeds
// the paper's machines exhibit (the Power7 runs ~2.2x slower than the
// Haswell at the largest DAGs, the Sandy Bridge ~1.2x).
var machineProfiles = []struct {
	name  string
	scale float64
}{
	{"Linux, Intel Haswell, 2.3GHz", 1.0},
	{"Linux, Intel Sandy Bridge, 2.6GHz", 1.2},
	{"Linux, IBM Power7, 3.6GHz", 2.2},
}

// runFig8 concretizes every package of a 245-package repository (builtin
// + ARES + synthetic fill, matching the size of Spack's 2015 repository),
// averaging 10 trials per package, and prints (DAG size, seconds) points
// per machine profile.
func runFig8() error {
	synth := repo.NewRepo("synthetic")
	base := repo.Builtin().Len() + ares.Repo().Len()
	repo.Synthesize(synth, 245-base, 2015)
	// The timing sweep runs cache-free so every trial measures a full solve,
	// matching the paper's methodology; the memo cache is measured separately
	// below.
	s := core.MustNew(core.WithRepos(ares.Repo(), synth))
	s.Concretizer.Cache = nil

	names := s.Repos.Names()
	fmt.Printf("repository size: %d packages\n", len(names))

	const trials = 10
	type point struct {
		nodes int
		avg   time.Duration
	}
	var points []point
	var worst time.Duration
	for _, name := range names {
		abstract := spec.New(name)
		var total time.Duration
		nodes := 0
		for i := 0; i < trials; i++ {
			start := time.Now()
			concrete, err := s.Concretizer.Concretize(abstract)
			if err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			total += time.Since(start)
			nodes = concrete.Size()
		}
		avg := total / trials
		points = append(points, point{nodes, avg})
		if avg > worst {
			worst = avg
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].nodes < points[j].nodes })

	// Bucket by DAG size for a readable series.
	fmt.Printf("\n%-8s", "nodes")
	for _, m := range machineProfiles {
		fmt.Printf(" %-36s", m.name)
	}
	fmt.Println()
	byNodes := make(map[int][]time.Duration)
	var sizes []int
	for _, p := range points {
		if len(byNodes[p.nodes]) == 0 {
			sizes = append(sizes, p.nodes)
		}
		byNodes[p.nodes] = append(byNodes[p.nodes], p.avg)
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		var sum time.Duration
		for _, d := range byNodes[n] {
			sum += d
		}
		avg := sum / time.Duration(len(byNodes[n]))
		fmt.Printf("%-8d", n)
		for _, m := range machineProfiles {
			fmt.Printf(" %-36v", time.Duration(float64(avg)*m.scale).Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("\nlargest DAG: %d nodes; worst average concretization: %v (host)\n",
		sizes[len(sizes)-1], worst.Round(time.Microsecond))
	fmt.Println("paper shape: <2s for all but the largest DAGs, quadratic trend, <9s at 50 nodes")

	// Fast-path comparison: the same 245-package sweep through ConcretizeAll,
	// once against an empty memo cache (cold) and once fully memoized (warm).
	abstracts := make([]*spec.Spec, len(names))
	for i, name := range names {
		abstracts[i] = spec.New(name)
	}
	sb := core.MustNew(core.WithRepos(ares.Repo(), synth))
	start := time.Now()
	if _, err := sb.Concretizer.ConcretizeAll(abstracts); err != nil {
		return err
	}
	cold := time.Since(start)
	start = time.Now()
	if _, err := sb.Concretizer.ConcretizeAll(abstracts); err != nil {
		return err
	}
	warm := time.Since(start)
	st := sb.Concretizer.Cache.Stats()
	fmt.Printf("\nbatch sweep (%d specs, parallel ConcretizeAll):\n", len(abstracts))
	fmt.Printf("    cold cache: %-12v warm cache: %-12v speedup: %.0fx\n",
		cold.Round(time.Microsecond), warm.Round(time.Microsecond),
		float64(cold)/float64(warm))
	fmt.Printf("    cache: %d hits, %d misses, %d evictions\n", st.Hits, st.Misses, st.Evictions)
	return nil
}

// runFig9 installs mpileaks with mpich and then with openmpi and reports
// which prefixes are shared (Fig. 9's reused dyninst sub-DAG).
func runFig9() error {
	s := core.MustNew()
	first, err := s.Install("mpileaks ^mpich")
	if err != nil {
		return err
	}
	second, err := s.Install("mpileaks ^openmpi")
	if err != nil {
		return err
	}
	fmt.Printf("first install (^mpich): %d packages built\n", len(first.Reports))
	shared, rebuilt := 0, 0
	for name, rep := range second.Reports {
		if rep.Reused {
			shared++
			fmt.Printf("    shared   %s\n", name)
		} else {
			rebuilt++
			fmt.Printf("    rebuilt  %s\n", name)
		}
	}
	fmt.Printf("second install (^openmpi): %d shared, %d rebuilt, store holds %d prefixes\n",
		shared, rebuilt, s.Store.Len())
	return nil
}

// fig10Packages are the seven builds the paper measures.
var fig10Packages = []string{
	"libelf", "libpng", "mpileaks", "libdwarf", "python", "dyninst", "netlib-lapack",
}

// fig10Conditions are the three bars of Fig. 10.
var fig10Conditions = []struct {
	name     string
	wrappers bool
	nfs      bool
}{
	{"Wrappers, NFS", true, true},
	{"Wrappers, Temp FS", true, false},
	{"No Wrappers, Temp FS", false, false},
}

// fig10Times builds each package under each condition (averaging three
// runs on fresh stores, as the paper averages three builds) and returns
// the virtual build time of the target package itself.
func fig10Times() (map[string][]time.Duration, error) {
	out := make(map[string][]time.Duration)
	const runs = 3
	for _, pkgName := range fig10Packages {
		times := make([]time.Duration, len(fig10Conditions))
		for ci, cond := range fig10Conditions {
			var total time.Duration
			for r := 0; r < runs; r++ {
				var opts []core.Option
				if cond.nfs {
					opts = append(opts, core.WithNFSStage())
				}
				if !cond.wrappers {
					opts = append(opts, core.WithoutWrappers())
				}
				s := core.MustNew(opts...)
				res, err := s.Install(pkgName)
				if err != nil {
					return nil, fmt.Errorf("%s under %s: %v", pkgName, cond.name, err)
				}
				total += res.Report(pkgName).Time
			}
			times[ci] = total / runs
		}
		out[pkgName] = times
	}
	return out, nil
}

// runFig10 prints the three build-time bars per package.
func runFig10() error {
	times, err := fig10Times()
	if err != nil {
		return err
	}
	fmt.Printf("%-15s", "package")
	for _, c := range fig10Conditions {
		fmt.Printf(" %-22s", c.name)
	}
	fmt.Println()
	for _, p := range fig10Packages {
		fmt.Printf("%-15s", p)
		for _, d := range times[p] {
			fmt.Printf(" %-22v", d.Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("\n(virtual build time; paper shape: NFS slowest, wrappers a small delta)")
	return nil
}

// runFig11 prints overhead percentages relative to the wrapper-less temp
// build, the exact derivation of Fig. 11.
func runFig11() error {
	times, err := fig10Times()
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-18s %-18s\n", "package", "Wrappers, NFS (%)", "Wrappers (%)")
	var sumNFS, sumWrap float64
	for _, p := range fig10Packages {
		base := float64(times[p][2]) // no wrappers, temp
		nfs := 100 * (float64(times[p][0]) - base) / base
		wrap := 100 * (float64(times[p][1]) - base) / base
		sumNFS += nfs
		sumWrap += wrap
		fmt.Printf("%-15s %-18.1f %-18.1f\n", p, nfs, wrap)
	}
	n := float64(len(fig10Packages))
	fmt.Printf("%-15s %-18.1f %-18.1f\n", "mean", sumNFS/n, sumWrap/n)
	fmt.Println("\npaper: wrappers ~10% mean (range -0.4..12.3), NFS ~33% mean (range 4.9..62.7)")
	return nil
}

// runFig13 concretizes the production ARES configuration and prints the
// DAG with Fig. 13's package classification.
func runFig13() error {
	s := core.MustNew(core.WithRepos(ares.Repo()))
	concrete, err := s.Spec(ares.Current.Spec())
	if err != nil {
		return err
	}
	counts := make(map[ares.PackageType][]string)
	concrete.Traverse(func(n *spec.Spec) bool {
		ty := ares.Classification[n.Name]
		counts[ty] = append(counts[ty], n.Name)
		return true
	})
	fmt.Printf("ARES production DAG: %d packages\n\n", concrete.Size())
	for _, ty := range []ares.PackageType{
		ares.TypeCode, ares.TypePhysics, ares.TypeMath, ares.TypeUtility, ares.TypeExternal,
	} {
		names := counts[ty]
		sort.Strings(names)
		fmt.Printf("%-9s (%2d): %v\n", ty, len(names), names)
	}
	fmt.Println("\nDependency tree:")
	fmt.Print(concrete.TreeString())
	return nil
}

// Interface check: every experiment writes through the shared simfs types.
var _ = simfs.TempFS
