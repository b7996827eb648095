// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON report. Each benchmark line becomes
// a record of its iteration count and metrics (ns/op, B/op, allocs/op,
// and any custom b.ReportMetric units). Every figure of merit in the
// figures table whose inputs are present is derived into the report, so
// CI can assert the acceptance bars without re-parsing benchmark text.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is that suffix (1 when absent; 0 in reports recorded before
	// it was kept). A -cpu list runs every benchmark once per value, so a
	// result is identified by Name and Procs together.
	Procs int `json:"procs,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value, e.g. "ns/op", "B/op", "dag-nodes".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the full JSON document.
type Report struct {
	Date   string `json:"date"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Maxprocs is the largest -N suffix of the benchmark names (GOMAXPROCS
	// during the run); 1 when the suffix is absent. Parallel speedups below
	// 1 on a single-CPU host are expected.
	Maxprocs   int                `json:"maxprocs"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	check := flag.Bool("check", false,
		"check mode: treat arguments as BENCH_*.json reports and fail if any declared acceptance bar is missed")
	flag.Parse()

	if *check {
		if err := runCheck(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	rep, err := parseReport(os.Stdin)
	if err != nil {
		fatal(err)
	}
	rep.Date = time.Now().UTC().Format(time.RFC3339)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parseReport reads `go test -bench` output and derives its figures.
func parseReport(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
				rep.Maxprocs = max(rep.Maxprocs, b.Procs)
			}
		}
	}
	rep.Derived = derive(rep.Benchmarks)
	return rep, sc.Err()
}

// parseLine parses one result line of the form
// "BenchmarkName-8  120  9735 ns/op  245 packages  64 B/op".
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// derive computes every figure in the figures table whose inputs are
// present: num, divided by den when the figure has one, times the 0/1
// gate flag when it has one. Figures with a missing or zero input are
// left out. A report run at several -cpu values gets every figure once
// per value, from that value's results, keyed "<figure>-<procs>".
func derive(benchmarks []Benchmark) map[string]float64 {
	procs := map[int]bool{}
	for _, b := range benchmarks {
		procs[b.Procs] = true
	}
	d := map[string]float64{}
	for p := range procs {
		suffix := ""
		if len(procs) > 1 {
			suffix = "-" + strconv.Itoa(p)
		}
		deriveAt(benchmarks, p, suffix, d)
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// deriveAt adds to d every figure derivable from the results run at procs,
// its key followed by suffix.
func deriveAt(benchmarks []Benchmark, procs int, suffix string, d map[string]float64) {
	metric := func(m ref) float64 {
		for _, b := range benchmarks {
			if b.Name == m.bench && b.Procs == procs {
				return b.Metrics[m.unit]
			}
		}
		return 0
	}
	for _, f := range figures {
		v := metric(f.num)
		if v <= 0 {
			continue
		}
		if f.den != (ref{}) {
			den := metric(f.den)
			if den <= 0 {
				continue
			}
			v /= den
		}
		if f.gate != (ref{}) {
			v *= metric(f.gate)
		}
		d[f.key+suffix] = v
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
