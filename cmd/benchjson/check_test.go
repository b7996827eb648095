package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func report(derived map[string]float64) *Report {
	return &Report{Derived: derived}
}

func TestCheckReportPassesAtOrAboveBar(t *testing.T) {
	passes, fails := checkReport("x.json", report(map[string]float64{
		"fig8_warm_cache_speedup": 10.0, // exactly at the bar
		"buildcache_speedup_j8":   96.5,
	}))
	if len(fails) != 0 {
		t.Fatalf("failures = %v", fails)
	}
	if len(passes) != 2 {
		t.Fatalf("passes = %v, want 2 lines", passes)
	}
}

func TestCheckReportFailsBelowBar(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"store_installs_per_sec_w8": 1500,
	}))
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want 1", fails)
	}
}

func TestCheckReportRequiresAKnownBar(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"some_other_metric": 99,
	}))
	if len(fails) != 1 {
		t.Fatalf("a report without a known bar must fail: %v", fails)
	}
	_, fails = checkReport("x.json", report(nil))
	if len(fails) != 1 {
		t.Fatalf("a report without derived metrics must fail: %v", fails)
	}
}

func TestCheckReportMixedBars(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"fig8_warm_cache_speedup": 55,
		"buildcache_speedup_j8":   2.5, // below its 5x bar
	}))
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want only the missed bar", fails)
	}
}

func TestRunCheckOnFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		t.Helper()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", report(map[string]float64{"buildcache_speedup_j8": 40}))
	bad := write("bad.json", report(map[string]float64{"buildcache_speedup_j8": 3}))

	if err := runCheck([]string{good}); err != nil {
		t.Errorf("passing report failed: %v", err)
	}
	if err := runCheck([]string{good, bad}); err == nil {
		t.Error("missed bar did not fail the check")
	}
	if err := runCheck(nil); err == nil {
		t.Error("no files should be an error")
	}
	if err := runCheck([]string{filepath.Join(dir, "absent.json")}); err == nil {
		t.Error("unreadable file should be an error")
	}
}

func TestDeriveBuildcacheSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkBuildcacheARES/source/j8",
			Metrics: map[string]float64{"ns/op": 40e6, "virtual-sec": 6.0}},
		{Name: "BenchmarkBuildcacheARES/cached/j8",
			Metrics: map[string]float64{"ns/op": 32e6, "virtual-sec": 0.06}},
	}
	d := derive(benches)
	if got := d["buildcache_speedup_j8"]; got != 100 {
		t.Errorf("buildcache_speedup_j8 = %v, want 100", got)
	}
	if got := d["buildcache_real_speedup_j8"]; got != 1.25 {
		t.Errorf("buildcache_real_speedup_j8 = %v, want 1.25", got)
	}
}

func TestDeriveSpliceSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkSpliceVsRebuild/splice",
			Metrics: map[string]float64{"virtual-sec": 0.05}},
		{Name: "BenchmarkSpliceVsRebuild/rebuild-cone",
			Metrics: map[string]float64{"virtual-sec": 5.0}},
	}
	d := derive(benches)
	if got := d["splice_vs_rebuild_speedup"]; got != 100 {
		t.Errorf("splice_vs_rebuild_speedup = %v, want 100", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived splice report should clear its bar: %v", fails)
	}
	// A splice as slow as the rebuild it replaces misses the bar.
	benches[0].Metrics["virtual-sec"] = 4.0
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("slow splice must miss the bar: %v", fails)
	}
}

func TestDeriveConcretizeScale(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkConcretizeScale/chain/n100", Metrics: map[string]float64{"ns/op": 1e6}},
		{Name: "BenchmarkConcretizeScale/chain/n800", Metrics: map[string]float64{"ns/op": 10e6}},
		{Name: "BenchmarkConcretizeScale/fan3/n100", Metrics: map[string]float64{"ns/op": 2e6}},
		{Name: "BenchmarkConcretizeScale/fan3/n800", Metrics: map[string]float64{"ns/op": 32e6}},
	}
	d := derive(benches)
	if got := d["concretize_chain_scale_inv"]; got != 0.1 {
		t.Errorf("concretize_chain_scale_inv = %v, want 0.1", got)
	}
	if got := d["concretize_fan3_scale_inv"]; got != 0.0625 {
		t.Errorf("concretize_fan3_scale_inv = %v, want 0.0625", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("10x the time for 8x the chain should clear the bar: %v", fails)
	}
	// One pass per layer: 8x the chain costs about 64x.
	benches[1].Metrics["ns/op"] = 64e6
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("a quadratic chain must miss the bar: %v", fails)
	}
}

func TestDeriveEnvWarmSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkEnvInstall/cold", Metrics: map[string]float64{"ns/op": 50e6}},
		{Name: "BenchmarkEnvInstall/warm", Metrics: map[string]float64{"ns/op": 1e6}},
	}
	d := derive(benches)
	if got := d["env_warm_lockfile_speedup"]; got != 50 {
		t.Errorf("env_warm_lockfile_speedup = %v, want 50", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived env report should clear its bar: %v", fails)
	}
}

func TestDeriveServiceHerdCoalescing(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkServiceInstallHerd/herd/c256",
			Metrics: map[string]float64{"clients": 256, "source-builds": 1}},
	}
	d := derive(benches)
	if got := d["service_herd_coalescing"]; got != 256 {
		t.Errorf("service_herd_coalescing = %v, want 256", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived service report should clear its bar: %v", fails)
	}
	// A daemon that never coalesces (one build per client) misses the bar.
	benches[0].Metrics["source-builds"] = 256
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("uncoalesced herd must miss the bar: %v", fails)
	}
}

func TestDeriveSchedScaling(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkSchedWorkers/w1", Metrics: map[string]float64{"virtual-sec": 16.0}},
		{Name: "BenchmarkSchedWorkers/w4", Metrics: map[string]float64{"virtual-sec": 8.0}},
		{Name: "BenchmarkSchedWorkers/w8", Metrics: map[string]float64{"virtual-sec": 6.4}},
		{Name: "BenchmarkSchedWorkers/local/j8", Metrics: map[string]float64{"virtual-sec": 6.4}},
	}
	d := derive(benches)
	if got := d["sched_scaling_4w"]; got != 2 {
		t.Errorf("sched_scaling_4w = %v, want 2", got)
	}
	if got := d["sched_scaling_8w"]; got != 2.5 {
		t.Errorf("sched_scaling_8w = %v, want 2.5", got)
	}
	if got := d["sched_vs_local_j8"]; got != 1 {
		t.Errorf("sched_vs_local_j8 = %v, want 1", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived sched report should clear its bar: %v", fails)
	}
	// A scheduler that serializes everything (no scaling) misses the bar.
	benches[1].Metrics["virtual-sec"] = 15.0
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("unscaled fleet must miss the bar: %v", fails)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkBuildcacheARES/cached/j8-8 \t 3\t  33796699 ns/op\t 47.00 dag-nodes\t 0.058 virtual-sec")
	if !ok {
		t.Fatal("parseLine failed")
	}
	if b.Name != "BenchmarkBuildcacheARES/cached/j8" || b.Procs != 8 {
		t.Errorf("name/procs = %q/%d", b.Name, b.Procs)
	}
	if b.Metrics["virtual-sec"] != 0.058 || b.Metrics["dag-nodes"] != 47 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

// TestCommittedReportsRederive: every committed BENCH_*.json re-derives,
// from its own benchmarks, exactly the derived map it records, and clears
// its bars. A change to the figures table that alters a formula, or a bar
// key renamed without regenerating its report, fails here.
func TestCommittedReportsRederive(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json reports found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if got := derive(rep.Benchmarks); !reflect.DeepEqual(got, rep.Derived) {
			t.Errorf("%s: re-derived %v, report records %v", file, got, rep.Derived)
		}
		if _, fails := checkReport(file, &rep); len(fails) != 0 {
			t.Errorf("%s misses its bars: %v", file, fails)
		}
	}
}

func TestCheckMessagesCarryUnits(t *testing.T) {
	passes, fails := checkReport("x.json", report(map[string]float64{
		"lifecycle_gc_reclaim_pct":  100,
		"store_installs_per_sec_w8": 1500,
	}))
	if len(passes) != 1 || !strings.Contains(passes[0], "= 100.00% (bar 95%)") {
		t.Errorf("passes = %v", passes)
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "= 1500.00 installs/s, below the 2000 installs/s bar") {
		t.Errorf("failures = %v", fails)
	}
}

// TestMultiCPUResultsStayDistinct: a -cpu 1,4,8 run keeps each
// GOMAXPROCS value's results apart, derives every figure once per value,
// and checks each against the bar.
func TestMultiCPUResultsStayDistinct(t *testing.T) {
	const out = `goos: linux
pkg: repro
BenchmarkFig8ConcretizeAll         	       8	 140000000 ns/op
BenchmarkFig8ConcretizeAllWarm     	     100	  10000000 ns/op
BenchmarkFig8ConcretizeAll-4       	       8	 150000000 ns/op
BenchmarkFig8ConcretizeAllWarm-4   	     100	  30000000 ns/op
BenchmarkFig8ConcretizeAll-8       	       8	 160000000 ns/op
BenchmarkFig8ConcretizeAllWarm-8   	     100	   8000000 ns/op
PASS
`
	rep, err := parseReport(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 6 || rep.Maxprocs != 8 {
		t.Fatalf("parsed %d benchmarks at maxprocs %d, want 6 at 8", len(rep.Benchmarks), rep.Maxprocs)
	}
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		id := fmt.Sprintf("%s/%d", b.Name, b.Procs)
		if seen[id] {
			t.Errorf("two results named %s", id)
		}
		seen[id] = true
	}
	want := map[string]float64{
		"fig8_warm_cache_speedup-1": 14, "fig8_warm_cache_speedup-4": 5, "fig8_warm_cache_speedup-8": 20,
	}
	for k, v := range want {
		if got := rep.Derived[k]; got != v {
			t.Errorf("%s = %v, want %v (derived %v)", k, got, v, rep.Derived)
		}
	}
	if _, ok := rep.Derived["fig8_warm_cache_speedup"]; ok {
		t.Errorf("a multi-cpu report derived the unsuffixed figure: %v", rep.Derived)
	}
	passes, fails := checkReport("multi.json", &rep)
	if len(passes) != 2 || len(fails) != 1 || !strings.Contains(fails[0], "fig8_warm_cache_speedup-4 = 5.00x") {
		t.Errorf("passes %v, failures %v; want the -4 figure alone below the bar", passes, fails)
	}
}
