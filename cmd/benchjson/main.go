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
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
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
	// Maxprocs is the -N suffix of the benchmark names (GOMAXPROCS during
	// the run); 1 when the suffix is absent. Parallel speedups below 1 on
	// a single-CPU host are expected.
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

	rep := Report{Date: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
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
			if b, procs, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
				if procs > rep.Maxprocs {
					rep.Maxprocs = procs
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	rep.Derived = derive(rep.Benchmarks)

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

// parseLine parses one result line of the form
// "BenchmarkName-8  120  9735 ns/op  245 packages  64 B/op", returning
// the parsed record and the GOMAXPROCS suffix (1 when absent).
func parseLine(line string) (Benchmark, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, 0, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, procs, true
}

// derive computes every figure in the figures table whose inputs are
// present: num, divided by den when the figure has one, times the 0/1
// gate flag when it has one. Figures with a missing or zero input are
// left out.
func derive(benchmarks []Benchmark) map[string]float64 {
	metric := func(m ref) float64 {
		for _, b := range benchmarks {
			if b.Name == m.bench {
				return b.Metrics[m.unit]
			}
		}
		return 0
	}
	d := map[string]float64{}
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
		d[f.key] = v
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
