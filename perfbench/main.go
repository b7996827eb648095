// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads through the public functions of the
// internal packages and checks every operation's output:
//
//	solve   — one caller concretizes the Fig. 8 repository and the 36
//	          Table 3 configurations, cold and against a reuse store;
//	install — one caller installs Table 3 configurations onto fresh
//	          machines from a shared, signed binary cache;
//	fleet   — two clients send a seeded request mix to a warm daemon
//	          over loopback HTTP.
//
// A timed phase runs a fixed number of whole passes over a seeded shuffle
// of the workload's corpus, after one untimed warm-up pass. The count
// follows from -seconds alone, so every run with the same arguments does
// the same work. A block runs as chunks between short calibration slices
// (calib.go), and a set-up between two; the slices scale the times to
// the reference machine's speed, and the reported times are medians over
// blocks and set-ups. With
// -trace 1 the same phase runs twice, untraced and traced, and the
// per-layer metrics come from the traced one. The last line of standard
// output is one JSON object with the result.
//
// Run it from the repository root:
//
//	go -C perfbench run . -workload solve -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one closed-loop traffic mix over fixtures its constructor
// builds.
type workload interface {
	// kinds names the operation types; an operation's root span is
	// "op.<kind>".
	kinds() []string
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// corpus lists the operations of one pass.
	corpus() []item
	// do performs one operation. The returned check verifies its output
	// and runs outside the latency measurement.
	do(ot *opTrace, it item) (check func() error, err error)
	// counters snapshots the workload's cumulative exact counts.
	counters() map[string]float64
	// afterPhase checks whole-phase invariants from the counter deltas.
	afterPhase(delta map[string]float64) error
	// layers derives the per-layer metrics of one traced phase.
	layers(p *phase) map[string]float64
	close()
}

// item is one operation of the corpus.
type item struct {
	kind   int // index into kinds()
	input  int // index into the workload's inputs
	client int // the caller that issues it
}

// def describes a workload to the runner.
type def struct {
	build func(seed int64) (workload, error)
	// passSeconds is the nominal wall time of one pass: about what it
	// takes on the 2-vCPU reference VM when that runs at about half its
	// uncontended speed, as it does for hours on end. The timed phase is
	// round(seconds / (passSeconds * blockPasses)) blocks of blockPasses
	// passes, which fixes the operation count from -seconds alone.
	passSeconds float64
	blockPasses int
	// chunks is how many chunks a block runs as, with a calibration
	// slice between every two: each chunk is tens of milliseconds of
	// work, about ten times a slice.
	chunks int
}

var workloads = map[string]def{
	"solve":   {build: newSolve, passSeconds: 0.94, blockPasses: 1, chunks: 8},
	"install": {build: newInstall, passSeconds: 0.94, blockPasses: 2, chunks: 8},
	"fleet":   {build: newFleet, passSeconds: 0.117, blockPasses: 1, chunks: 2},
}

// setupRuns is how many times set-up runs; setup_s is the median of them,
// each scaled by the calibration slices around it.
// The first set-up builds the fixture the phases use. The others are
// spread evenly through the untraced timed phase, between blocks, and
// their fixtures are dropped at once, so the set-ups see the machine over
// the whole run.
const setupRuns = 5

func main() {
	name := flag.String("workload", "", "workload to run: solve, install or fleet")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and operation order")
	seconds := flag.Int("seconds", 10, "nominal timed-phase length; fixes the operation count")
	trace := flag.Int("trace", 0, "1 runs the phase untraced and traced and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	d, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload solve|install|fleet -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	out, err := run(*name, d, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, d def, seed int64, seconds int, traced bool, traceDir string) (*result, error) {
	blocks := max(1, int(float64(seconds)/(d.passSeconds*float64(d.blockPasses))+0.5))
	m, err := measure(name, d, seed, blocks, setupRuns, traced)
	if err != nil {
		return nil, err
	}
	out := &result{Attempted: m.base.ops, Failed: m.base.failed, Metrics: map[string]metric{}}
	var rows []row
	if !traced {
		rows = endToEnd(m.base, m.setups)
		printTable("end-to-end", rows)
	} else {
		out.Attempted += m.traced.ops
		out.Failed += m.traced.failed
		for _, md := range perLayer {
			rows = append(rows, row{md.name, m.layers[md.name], md.unit})
		}
		printLayers(m.traced.trace, m.traced.ops)
		printTable("per-layer", rows)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := writeChromeTrace(path, m.spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, r := range rows {
		out.Metrics[r.name] = metric{r.value, r.unit}
	}
	if m.checkErr != nil {
		fmt.Println("CHECK FAILED:", m.checkErr)
	}
	out.Correct = out.Failed == 0 && m.checkErr == nil
	return out, nil
}

// measurement is everything one run measured.
type measurement struct {
	setups []setupRun
	base   *phase // the untraced timed phase
	traced *phase // its traced repeat, or nil
	spans  []span
	// layers holds the per-layer metrics of the traced phase.
	layers   map[string]float64
	checkErr error
}

// measure sets the workload up, runs the warm-up pass and the untraced
// timed phase of the given number of blocks with the remaining set-ups
// spread through it, and with traced repeats that phase under a tracer.
func measure(name string, d def, seed int64, blocks, setups int, traced bool) (*measurement, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	w, first, err := setUp(cal, d, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	runs := []setupRun{first}
	// The i-th extra set-up runs before block i*blocks/setups.
	extra := map[int]int{}
	for i := 1; i < setups; i++ {
		extra[i*blocks/setups]++
	}
	between := func(b int) error {
		for range extra[b] {
			x, r, err := setUp(cal, d, seed)
			if err != nil {
				return err
			}
			x.close()
			runtime.GC() // the next block starts with the usual heap
			runs = append(runs, r)
		}
		return nil
	}
	corpus := w.corpus()
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  clients %d\n", name, seed, runtime.GOMAXPROCS(0), w.clients())
	passes := blocks * d.blockPasses
	fmt.Printf("timed phase: %d blocks x %d passes x %d ops = %d ops, after 1 warm-up pass\n",
		blocks, d.blockPasses, len(corpus), passes*len(corpus))

	if _, err := runPhase(cal, w, schedule(corpus, w.clients(), seed, 0, 1, 1), d.chunks, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	timed := schedule(corpus, w.clients(), seed, 1, blocks, d.blockPasses)
	m := &measurement{}
	if m.base, err = runPhase(cal, w, timed, d.chunks, nil, between); err != nil {
		return nil, err
	}
	m.setups = runs
	m.checkErr = w.afterPhase(m.base.delta)
	if !traced {
		return m, nil
	}
	tr := newTracer()
	if m.traced, err = runPhase(cal, w, timed, d.chunks, tr, nil); err != nil {
		return nil, err
	}
	if m.checkErr == nil {
		m.checkErr = w.afterPhase(m.traced.delta)
	}
	st := analyze(tr.spans)
	m.traced.trace = &st
	m.spans = tr.spans
	m.layers = w.layers(m.traced)
	m.layers["trace.coverage_pct"] = 100 * float64(st.covered) / float64(st.opTime)
	m.layers["trace.overhead_pct"] = 100 * (1 - m.traced.opsPerSec()/m.base.opsPerSec())
	m.layers["trace.spans"] = float64(st.spans)
	return m, nil
}

// setupRun is one set-up's duration and the machine's speed around it.
type setupRun struct {
	dur time.Duration
	sp  speed
}

// setUp builds the workload's fixtures and measures that, between two
// calibration slices. The set-up ends with runtime.GC(), inside the
// measurement.
func setUp(cal *calibrator, d def, seed int64) (workload, setupRun, error) {
	var w workload
	var r setupRun
	sp, err := cal.bracket(func() error {
		t0 := time.Now()
		var err error
		if w, err = d.build(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		r.dur = time.Since(t0)
		return nil
	})
	r.sp = sp
	return w, r, err
}

// schedule returns the operations of n blocks of blockPasses passes each,
// starting at pass first, as [block][client]. A client's share of the
// corpus is reshuffled every pass by a generator seeded from the workload
// seed, the pass and the client.
func schedule(corpus []item, clients int, seed int64, first, n, blockPasses int) [][][]item {
	out := make([][][]item, n)
	for b := range out {
		out[b] = make([][]item, clients)
		for q := 0; q < blockPasses; q++ {
			p := first + b*blockPasses + q
			for c := 0; c < clients; c++ {
				var mine []item
				for _, it := range corpus {
					if it.client == c {
						mine = append(mine, it)
					}
				}
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(p*clients+c)))
				rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
				out[b][c] = append(out[b][c], mine...)
			}
		}
	}
	return out
}

// block is what one block of a phase measured: as measured, and scaled
// to the reference machine chunk by chunk.
type block struct {
	wall, cpu   time.Duration
	lat         []time.Duration // every operation, sorted
	sWall, sCPU time.Duration
	sLat        []time.Duration // every operation, scaled, sorted
	speeds      []float64       // each chunk's wall-clock factor
}

// phase is what one timed phase measured.
type phase struct {
	blocks      []block
	ops, failed int
	byKind      [][]time.Duration // per kind, as measured, sorted
	mallocs     uint64
	allocBytes  uint64
	liveHeap    uint64
	delta       map[string]float64 // counter deltas over the phase
	trace       *traceStats
}

// medianOver is the median over the phase's blocks of f.
func (p *phase) medianOver(f func(b *block) float64) float64 {
	v := make([]float64, len(p.blocks))
	for i := range p.blocks {
		v[i] = f(&p.blocks[i])
	}
	return medianF(v)
}

func medianF(v []float64) float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// opsPerSec is the throughput of the median block, from its scaled wall
// time per operation.
func (p *phase) opsPerSec() float64 {
	return 1 / p.medianOver(func(b *block) float64 { return b.sWall.Seconds() / float64(len(b.lat)) })
}

// runner runs the operations of one phase.
type runner struct {
	w      workload
	tr     *tracer // nil runs untraced
	kinds  []string
	roots  []string
	opID   atomic.Int32
	failed int
	byKind [][]time.Duration
}

// clientOut is what one client's share of a chunk did.
type clientOut struct {
	lat    []time.Duration
	kind   []int
	failed int
	errs   []string
}

// runPhase runs the blocks one after another. between, when not nil,
// runs before each block, outside its timing, and what it allocates is
// left out of the phase's allocations, as is what the calibration slices
// allocate.
func runPhase(cal *calibrator, w workload, sched [][][]item, chunks int, tr *tracer, between func(block int) error) (*phase, error) {
	r := &runner{w: w, tr: tr, kinds: w.kinds()}
	for _, k := range r.kinds {
		r.roots = append(r.roots, "op."+k)
	}
	r.byKind = make([][]time.Duration, len(r.kinds))
	p := &phase{}

	runtime.GC()
	before := w.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var skipMallocs, skipBytes uint64
	for bi, clients := range sched {
		if between != nil {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := between(bi); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&m1)
			skipMallocs += m1.Mallocs - m0.Mallocs
			skipBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		calMallocs, calBytes := cal.mallocs, cal.allocBytes
		b := r.block(cal, clients, chunks)
		skipMallocs += cal.mallocs - calMallocs
		skipBytes += cal.allocBytes - calBytes
		p.ops += len(b.lat)
		p.blocks = append(p.blocks, b)
	}
	runtime.ReadMemStats(&ms1)
	after := w.counters()
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)

	p.failed = r.failed
	p.byKind = r.byKind
	p.mallocs = ms1.Mallocs - ms0.Mallocs - skipMallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc - skipBytes
	p.liveHeap = ms2.HeapAlloc
	p.delta = make(map[string]float64, len(after))
	for k, v := range after {
		p.delta[k] = v - before[k]
	}
	if p.ops == 0 {
		return nil, fmt.Errorf("phase ran no operations")
	}
	for _, l := range p.byKind {
		sortDurations(l)
	}
	return p, nil
}

// block runs one block as chunks, with a calibration slice before the
// first chunk and after each. Within a chunk every client runs its share
// of the chunk's operations as a closed loop on its own goroutine; the
// chunk ends when every client has finished. A chunk's times are scaled
// by the slices on either side of it.
func (r *runner) block(cal *calibrator, clients [][]item, chunks int) block {
	var b block
	prev := cal.slice()
	for k := range chunks {
		outs := make([]clientOut, len(clients))
		cpu0 := cpuTime()
		start := time.Now()
		var wg sync.WaitGroup
		for c, ops := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.run(c, ops[k*len(ops)/chunks:(k+1)*len(ops)/chunks], &outs[c])
			}()
		}
		wg.Wait()
		wall, cpu := time.Since(start), cpuTime()-cpu0
		next := cal.slice()
		sp := speedOf(prev, next)
		prev = next
		b.wall += wall
		b.cpu += cpu
		b.sWall += scale(wall, sp.wall)
		b.sCPU += scale(cpu, sp.cpu)
		b.speeds = append(b.speeds, sp.wall)
		for _, o := range outs {
			r.failed += o.failed
			for i, l := range o.lat {
				b.lat = append(b.lat, l)
				b.sLat = append(b.sLat, scale(l, sp.wall))
				r.byKind[o.kind[i]] = append(r.byKind[o.kind[i]], l)
			}
			for _, e := range o.errs {
				fmt.Fprintln(os.Stderr, "failed:", e)
			}
		}
	}
	sortDurations(b.lat)
	sortDurations(b.sLat)
	return b
}

// run performs one client's operations in order and checks each.
func (r *runner) run(client int, ops []item, o *clientOut) {
	for _, it := range ops {
		var ot *opTrace
		if r.tr != nil {
			ot = &opTrace{tr: r.tr, op: r.opID.Add(1), client: int32(client), cur: -1}
		}
		t0 := time.Now()
		root := ot.begin(r.roots[it.kind])
		check, err := r.w.do(ot, it)
		ot.end(root)
		lat := time.Since(t0)
		if err == nil {
			err = check()
		}
		o.lat = append(o.lat, lat)
		o.kind = append(o.kind, it.kind)
		if err != nil {
			o.failed++
			if len(o.errs) < 3 {
				o.errs = append(o.errs, fmt.Sprintf("%s: %v", r.kinds[it.kind], err))
			}
		}
	}
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a sorted sample.
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// tailIndex is the index, in a sorted sample of n, of the highest
// percentile with at least ten samples beyond it.
func tailIndex(n int) int { return max(0, n-11) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type row struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the eight end-to-end metrics of an untraced phase.
// Times are medians over the blocks and set-ups of their scaled times:
// wall-clock times scaled by the calibration slices' wall time, CPU time
// by their CPU time. The run also prints the times as measured.
func endToEnd(p *phase, setups []setupRun) []row {
	var sd, sdRaw []float64
	for _, r := range setups {
		fmt.Printf("set-up %.3f s at %.3f of the reference speed\n", r.dur.Seconds(), r.sp.wall)
		sd = append(sd, r.sp.wall*r.dur.Seconds())
		sdRaw = append(sdRaw, r.dur.Seconds())
	}
	var speeds []float64
	for _, b := range p.blocks {
		speeds = append(speeds, b.speeds...)
	}
	bn := len(p.blocks[0].lat)
	fmt.Printf("times are medians over %d blocks of %d ops; the machine ran at %.3f to %.3f of the reference speed\n",
		len(p.blocks), bn, slices.Min(speeds), slices.Max(speeds))
	fmt.Printf("tail_ms is p%.2f of a block, its %d-th largest latency\n",
		100*float64(tailIndex(bn)+1)/float64(bn), bn-tailIndex(bn))
	perOp := func(d time.Duration, b *block) float64 { return ms(d) / float64(len(b.lat)) }
	fmt.Printf("as measured: setup_s %.4f  ops_per_s %.2f  p50_ms %.4f  tail_ms %.4f  cpu_ms_per_op %.4f\n",
		medianF(sdRaw),
		1000/p.medianOver(func(b *block) float64 { return perOp(b.wall, b) }),
		p.medianOver(func(b *block) float64 { return ms(median(b.lat)) }),
		p.medianOver(func(b *block) float64 { return ms(b.lat[tailIndex(len(b.lat))]) }),
		p.medianOver(func(b *block) float64 { return perOp(b.cpu, b) }))
	n := float64(p.ops)
	return []row{
		{"setup_s", medianF(sd), "s"},
		{"ops_per_s", p.opsPerSec(), "1/s"},
		{"p50_ms", p.medianOver(func(b *block) float64 { return ms(median(b.sLat)) }), "ms"},
		{"tail_ms", p.medianOver(func(b *block) float64 { return ms(b.sLat[tailIndex(len(b.sLat))]) }), "ms"},
		{"cpu_ms_per_op", p.medianOver(func(b *block) float64 { return perOp(b.sCPU, b) }), "ms"},
		{"allocs_per_op", float64(p.mallocs) / n, "count"},
		{"alloc_kb_per_op", float64(p.allocBytes) / 1024 / n, "KiB"},
		{"live_heap_mb", float64(p.liveHeap) / (1 << 20), "MiB"},
	}
}

func printTable(title string, rows []row) {
	fmt.Printf("%s:\n", title)
	for _, r := range rows {
		fmt.Printf("  %-32s %14.4f %s\n", r.name, r.value, r.unit)
	}
}

// printLayers prints every span name's calls per operation, time per
// call, and total and self time per operation, by self time.
func printLayers(st *traceStats, ops int) {
	names := make([]string, 0, len(st.layers))
	for n := range st.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.layers[names[i]].self > st.layers[names[j]].self })
	fmt.Printf("layers (%d operations):\n", ops)
	fmt.Printf("  %-28s %10s %12s %12s %12s\n", "span", "calls/op", "ms/call", "total_ms/op", "self_ms/op")
	for _, n := range names {
		l := st.layers[n]
		fmt.Printf("  %-28s %10.2f %12.4f %12.4f %12.4f\n", n, float64(l.calls)/float64(ops),
			ms(l.total)/float64(l.calls), ms(l.total)/float64(ops), ms(l.self)/float64(ops))
	}
	fmt.Printf("  spans cover %.1f%% of operation wall time\n", 100*float64(st.covered)/float64(st.opTime))
}

// layerMS is a span name's total time per operation, in ms.
func (p *phase) layerMS(name string) float64 {
	if l := p.trace.layers[name]; l != nil {
		return ms(l.total) / float64(p.ops)
	}
	return 0
}

// layerCalls is the number of spans of a name.
func (p *phase) layerCalls(name string) float64 {
	if l := p.trace.layers[name]; l != nil {
		return float64(l.calls)
	}
	return 0
}

// selfMS is a span name's self time per operation, in ms.
func (p *phase) selfMS(name string) float64 {
	if l := p.trace.layers[name]; l != nil {
		return ms(l.self) / float64(p.ops)
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
