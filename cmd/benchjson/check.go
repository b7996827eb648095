package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ref names one benchmark metric: a benchmark (-GOMAXPROCS suffix
// stripped) and one of its units.
type ref struct{ bench, unit string }

func ns(bench string) ref   { return ref{bench, "ns/op"} }
func vsec(bench string) ref { return ref{bench, "virtual-sec"} }

// figure is one derived figure of merit: num, divided by den when set,
// times the 0/1 gate flag when set. A positive floor makes it an
// acceptance bar the committed report must stay at or above; floor 0
// marks a context figure that is reported but not gated. CI runs
// `benchjson -check` over every BENCH_*.json so a regression that erodes
// a gated figure fails the build instead of rotting silently.
type figure struct {
	key            string
	num, den, gate ref
	floor          float64
	unit           string // suffix after values in check messages
}

// figures is the one table of derived figures and their bars. A report is
// matched by whichever gated keys its Derived map carries; a report
// carrying none of them fails the check outright — a bench suite without
// a bar is not a quality gate.
var figures = []figure{
	// Concretizer memo cache: warm Fig. 8 sweep ≥10x over cold; the
	// parallel sweep's speedup rides along.
	{key: "fig8_warm_cache_speedup", num: ns("BenchmarkFig8ConcretizeAll"),
		den: ns("BenchmarkFig8ConcretizeAllWarm"), floor: 10, unit: "x"},
	{key: "fig8_parallel_speedup", num: ns("BenchmarkFig8ConcretizeAll"),
		den: ns("BenchmarkFig8ConcretizeAllParallel"), unit: "x"},
	// Concretizer reuse: solving against a fully populated reuse source
	// costs at most 2x the cold greedy solve (inverted ratio, floor 0.5).
	{key: "concretize_reuse_overhead_inv", num: ns("BenchmarkARESConcretizeGreedyCold"),
		den: ns("BenchmarkARESConcretizeReuse"), floor: 0.5, unit: "x"},
	// Concretizer scaling: a chain of 800 packages costs at most 15x one
	// of 100 (inverted ratio, floor 1/15), i.e. time grows with nodes at
	// an exponent of at most 1.3; a fixed point that attaches one layer
	// per pass costs about 64x. The fan-3 DAG's ratio rides along.
	{key: "concretize_chain_scale_inv", num: ns("BenchmarkConcretizeScale/chain/n100"),
		den: ns("BenchmarkConcretizeScale/chain/n800"), floor: 1.0 / 15, unit: "x"},
	{key: "concretize_fan3_scale_inv", num: ns("BenchmarkConcretizeScale/fan3/n100"),
		den: ns("BenchmarkConcretizeScale/fan3/n800"), unit: "x"},
	// Store index: 8 concurrent builders, each saving after every install,
	// sustain ≥2000 installs/s. The floor sits near the geometric mean of
	// the lock-striped index (~5000/s) and a single-lock index rewriting
	// the whole database per save (under 1000/s), so either regression
	// fails it.
	{key: "store_installs_per_sec_w8", num: ref{"BenchmarkStoreContention/w8", "installs/sec"},
		floor: 2000, unit: " installs/s"},
	{key: "store_lookups_per_sec_w8", num: ref{"BenchmarkStoreLookupContention/w8", "lookups/sec"},
		unit: " lookups/s"},
	// Binary cache: cached ARES install ≥5x faster (simulated install
	// time, as in Fig. 10) than building from source at Jobs=8; the
	// simulator's real-time ratio rides along.
	{key: "buildcache_speedup_j8", num: vsec("BenchmarkBuildcacheARES/source/j8"),
		den: vsec("BenchmarkBuildcacheARES/cached/j8"), floor: 5, unit: "x"},
	{key: "buildcache_real_speedup_j8", num: ns("BenchmarkBuildcacheARES/source/j8"),
		den: ns("BenchmarkBuildcacheARES/cached/j8"), unit: "x"},
	// Environments: `env install` on an unchanged lockfile is a no-op
	// diff ≥10x cheaper than the cold install it short-circuits.
	{key: "env_warm_lockfile_speedup", num: ns("BenchmarkEnvInstall/cold"),
		den: ns("BenchmarkEnvInstall/warm"), floor: 10, unit: "x"},
	// Buildcache service: the install herd must coalesce ≥8 concurrent
	// clients per cache-miss build (measured at 256 clients ⇒ 1 build).
	{key: "service_herd_coalescing", num: ref{"BenchmarkServiceInstallHerd/herd/c256", "clients"},
		den:   ref{"BenchmarkServiceInstallHerd/herd/c256", "source-builds"},
		floor: 8, unit: " clients/build"},
	// Distributed scheduler: 4 lease workers must at least halve the
	// one-worker virtual makespan of the cold ARES DAG; 8-worker scaling
	// and scale-out vs. the single-machine Jobs=8 build ride along.
	{key: "sched_scaling_4w", num: vsec("BenchmarkSchedWorkers/w1"),
		den: vsec("BenchmarkSchedWorkers/w4"), floor: 2, unit: "x"},
	{key: "sched_scaling_8w", num: vsec("BenchmarkSchedWorkers/w1"),
		den: vsec("BenchmarkSchedWorkers/w8"), unit: "x"},
	{key: "sched_vs_local_j8", num: vsec("BenchmarkSchedWorkers/w8"),
		den: vsec("BenchmarkSchedWorkers/local/j8"), unit: "x"},
	// Lifecycle: GC of a majority-dead ARES store reclaims ≥95% of the
	// dead bytes with the live closure byte-identical (the live-intact
	// gate zeroes the figure otherwise).
	{key: "lifecycle_gc_reclaim_pct", num: ref{"BenchmarkLifecycleGC/ares50", "gc-reclaim-pct"},
		gate: ref{"BenchmarkLifecycleGC/ares50", "live-intact"}, floor: 95, unit: "%"},
	// Splice: rewiring the ARES zlib cone by relocation must beat
	// recompiling that cone ≥5x in simulated install time.
	{key: "splice_vs_rebuild_speedup", num: vsec("BenchmarkSpliceVsRebuild/rebuild-cone"),
		den: vsec("BenchmarkSpliceVsRebuild/splice"), floor: 5, unit: "x"},
}

// checkReport evaluates one parsed report against the declared bars,
// returning human-readable pass lines and failures. A figure derived at
// several -cpu values must clear its bar at each of them.
func checkReport(name string, rep *Report) (passes, failures []string) {
	keys := make([]string, 0, len(rep.Derived))
	for k := range rep.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var known []string
	for _, f := range figures {
		if f.floor == 0 {
			continue
		}
		known = append(known, f.key)
		for _, key := range keys {
			if figureKey(key) != f.key {
				continue
			}
			if v := rep.Derived[key]; v < f.floor {
				failures = append(failures, fmt.Sprintf("%s: %s = %.2f%s, below the %g%s bar",
					name, key, v, f.unit, f.floor, f.unit))
			} else {
				passes = append(passes, fmt.Sprintf("%s: %s = %.2f%s (bar %g%s)",
					name, key, v, f.unit, f.floor, f.unit))
			}
		}
	}
	if len(passes)+len(failures) == 0 {
		failures = append(failures,
			fmt.Sprintf("%s: no known acceptance bar among derived metrics (want one of %s)",
				name, strings.Join(known, ", ")))
	}
	return passes, failures
}

// figureKey strips the "-<procs>" suffix of a derived key.
func figureKey(key string) string {
	if i := strings.LastIndexByte(key, '-'); i > 0 {
		if _, err := strconv.Atoi(key[i+1:]); err == nil {
			return key[:i]
		}
	}
	return key
}

// runCheck loads each JSON report and fails if any declared bar is
// missed (or a report declares none).
func runCheck(files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-check needs at least one BENCH_*.json file")
	}
	var failures []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		passes, fails := checkReport(file, &rep)
		for _, p := range passes {
			fmt.Println("ok  ", p)
		}
		failures = append(failures, fails...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d bar(s) missed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
