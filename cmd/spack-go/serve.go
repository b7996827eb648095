package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// cmdServe runs the buildcache-as-a-service daemon: blob storage for
// binary archives, shared concretization, and coalesced installs over
// HTTP. Remote machines point `spack-go -cache-url` (or an
// HTTPBackend) at it.
func cmdServe(fs *flag.FlagSet) runFunc {
	addr := fs.String("addr", "127.0.0.1:8587", "listen address")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	runFor := fs.Duration("for", 0, "serve for this long, then shut down (0 = until SIGINT/SIGTERM)")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Minute, "scheduler lease TTL between worker heartbeats")
	maxAttempts := fs.Int("max-attempts", 3, "build attempts per DAG node before poisoning its dependents")
	maxCacheSize := fs.String("max-cache-size", "", "self-bound the build_cache area to this size (K/M/G suffixes)")
	maxCacheAge := fs.Duration("max-cache-age", 0, "evict archives last accessed longer ago than this after each upload")
	maintenance := fs.Duration("maintenance-interval", 0, "run scheduled self-maintenance (gc + cache prune) about this often, with jitter (0 = off)")
	return func(w io.Writer, s *core.Spack, _ []string) error {
		var maxCacheBytes int64
		if *maxCacheSize != "" {
			var err error
			if maxCacheBytes, err = parseSize(*maxCacheSize); err != nil {
				return err
			}
		}

		logw := io.Writer(w)
		if *quiet {
			logw = io.Discard
		}
		srv := service.NewServer(service.Config{
			Mirror:      s.Mirror,
			Concretizer: s.Concretizer,
			Builder:     s.Builder,
			Log:         logw,
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *maxAttempts,
			// The daemon judges uploads against this machine's keyring and
			// its persisted trust policy, and self-bounds its mirror.
			Verifier:      s.Keyring,
			TrustPolicy:   s.Keyring.Policy(),
			MaxCacheBytes: maxCacheBytes,
			MaxCacheAge:   *maxCacheAge,
			GC:            s.GC(),
			// /v1/splice rewires server-side installs, /v1/keys publishes this
			// machine's public signing keys, and the maintenance loop keeps the
			// daemon's store and cache bounded unattended.
			Splicer:             s.Splicer(),
			Keyring:             s.Keyring,
			MaintenanceInterval: *maintenance,
		})
		bound, err := srv.Start(*addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "==> serving on http://%s\n", bound)

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *runFor > 0 {
			ctx, stop = context.WithTimeout(ctx, *runFor)
			defer stop()
		}
		<-ctx.Done()

		// Drain first: stop issuing leases and wait (bounded by the lease
		// TTL) for outstanding leases to complete or expire, so workers'
		// in-flight builds land before the listener closes.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), *leaseTTL+5*time.Second)
		srv.Drain(drainCtx)
		drainCancel()

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		st := srv.Stats()
		fmt.Fprintf(w, "==> shut down: %d blob, %d concretize, %d install, %d job, %d lease requests; %d coalesced, %d source builds\n",
			st.Blobs.Requests, st.Concretize.Requests, st.Install.Requests,
			st.Jobs.Requests, st.Leases.Requests, st.Install.Coalesced, st.SourceBuilds)
		fmt.Fprintf(w, "==> scheduler: %d nodes built, %d failed, %d prebuilt; %d leases reclaimed, %d completions rejected\n",
			st.Sched.Built, st.Sched.Failed, st.Sched.Prebuilt, st.Sched.Reclaimed, st.Sched.Rejected)
		for _, row := range []struct {
			name string
			ep   service.EndpointStats
		}{{"blobs", st.Blobs}, {"concretize", st.Concretize}, {"install", st.Install}, {"jobs", st.Jobs}, {"leases", st.Leases}} {
			if row.ep.Requests == 0 {
				continue
			}
			fmt.Fprintf(w, "==> latency %-10s p50 %.3fms  p99 %.3fms  (%d requests)\n",
				row.name, row.ep.P50MS, row.ep.P99MS, row.ep.Requests)
		}
		return nil
	}
}
