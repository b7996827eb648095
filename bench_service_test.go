// Buildcache-service benchmarks (run via `make bench-service` →
// BENCH_service.json):
//
//	BenchmarkServiceInstallHerd/herd/c256 — 256 concurrent clients all
//	    POST /v1/install of the 47-package ARES stack against a daemon
//	    with a cold store. Server-side singleflight must collapse the
//	    thundering herd onto exactly one cache-miss build; the derived
//	    coalescing ratio (clients per source build, bar ≥ 8, measured
//	    at 256) is the acceptance gate `benchjson -check` enforces.
//	BenchmarkServiceInstallHerd/warm/c256 — the same herd against a
//	    daemon whose store already holds the stack: pure service
//	    overhead (concretize memo hit + store probe), reported as
//	    installs/sec and p99 latency for context.
package repro

import (
	"context"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/service"
)

// newBenchDaemon wires a fresh install machine behind an HTTP daemon on
// an ephemeral port, returning the server, its base URL, and the
// builder (whose store the caller may pre-warm).
func newBenchDaemon(tb testing.TB) (*service.Server, string, *build.Builder) {
	tb.Helper()
	m := newBenchMachine(nil)
	path := repo.NewPath(ares.Repo(), repo.Builtin())
	// Memoized like the product's concretizer (core.New), so the warm herd
	// times a memo hit, not a solve.
	conc := concretize.New(path, config.New(), compiler.LLNLRegistry())
	conc.Cache = concretize.NewCache(0)
	srv := service.NewServer(service.Config{
		Mirror:      bcSources,
		Concretizer: conc,
		Builder:     m,
		Log:         io.Discard,
	})
	base, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv, "http://" + base, m
}

// herd fires clients concurrent installs of expr at the daemon and
// returns the sorted per-request latencies plus the herd's wall time.
func herd(tb testing.TB, base, expr string, clients int) ([]time.Duration, time.Duration) {
	tb.Helper()
	latencies := make([]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			_, errs[i] = service.NewClient(base).Install(expr)
			latencies[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return latencies, wall
}

func p99(sorted []time.Duration) time.Duration {
	return sorted[len(sorted)*99/100]
}

func BenchmarkServiceInstallHerd(b *testing.B) {
	bcSetup()
	if bcErr != nil {
		b.Fatal(bcErr)
	}
	const clients = 256
	expr := ares.Current.Spec()

	b.Run("herd/c256", func(b *testing.B) {
		var lastP99, lastRate float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, base, _ := newBenchDaemon(b)
			b.StartTimer()
			lat, wall := herd(b, base, expr, clients)
			b.StopTimer()
			st := srv.Stats()
			if st.SourceBuilds != 1 {
				b.Fatalf("herd of %d triggered %d cache-miss builds, want exactly 1", clients, st.SourceBuilds)
			}
			if st.Install.Requests != clients {
				b.Fatalf("install requests = %d, want %d", st.Install.Requests, clients)
			}
			lastP99 = float64(p99(lat).Milliseconds())
			lastRate = float64(clients) / wall.Seconds()
			b.StartTimer()
		}
		b.ReportMetric(float64(clients), "clients")
		b.ReportMetric(1, "source-builds")
		b.ReportMetric(lastRate, "installs/sec")
		b.ReportMetric(lastP99, "p99-ms")
	})

	b.Run("warm/c256", func(b *testing.B) {
		srv, base, m := newBenchDaemon(b)
		if _, err := m.Build(bcSpec); err != nil {
			b.Fatal(err)
		}
		// One request fills the memo cache, as on a daemon that has
		// served the stack before.
		if _, err := service.NewClient(base).Install(expr); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var lastP99, lastRate float64
		for i := 0; i < b.N; i++ {
			lat, wall := herd(b, base, expr, clients)
			lastP99 = float64(p99(lat).Milliseconds())
			lastRate = float64(clients) / wall.Seconds()
		}
		b.StopTimer()
		if st := srv.Stats(); st.SourceBuilds != 0 {
			b.Fatalf("warm herd triggered %d source builds", st.SourceBuilds)
		}
		b.ReportMetric(lastRate, "installs/sec")
		b.ReportMetric(lastP99, "p99-ms")
	})
}

// TestServiceBenchSanity keeps the bench wiring honest under plain
// `go test`: a small herd against a cold daemon must coalesce onto one
// source build, and every client must see the same install prefix.
func TestServiceBenchSanity(t *testing.T) {
	bcSetup()
	if bcErr != nil {
		t.Fatal(bcErr)
	}
	srv, base, _ := newBenchDaemon(t)
	const clients = 16
	expr := ares.Current.Spec()
	prefixes := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := service.NewClient(base).Install(expr)
			if err == nil {
				prefixes[i] = resp.Prefix
			}
		}(i)
	}
	wg.Wait()
	for i, p := range prefixes {
		if p == "" || p != prefixes[0] {
			t.Fatalf("client %d prefix = %q, client 0 = %q", i, p, prefixes[0])
		}
	}
	st := srv.Stats()
	if st.SourceBuilds != 1 {
		t.Fatalf("herd of %d triggered %d cache-miss builds, want 1", clients, st.SourceBuilds)
	}
	if st.Install.Requests != clients {
		t.Fatalf("install requests = %d, want %d", st.Install.Requests, clients)
	}
}
