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

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/service"
)

// cmdWork runs this machine as a remote build worker against a serve
// daemon's lease scheduler: claim a ready DAG node, pull its
// dependencies from the daemon's binary cache, build the node from
// source, push the archive back, report completion; repeat. SIGTERM
// drains — the in-flight lease finishes before the process exits.
func cmdWork(fs *flag.FlagSet) runFunc {
	url := fs.String("url", "", "daemon root URL (required), e.g. http://127.0.0.1:8587")
	name := fs.String("name", "", "worker name in leases and stats (default host:pid)")
	poll := fs.Duration("poll", 250*time.Millisecond, "idle wait between lease attempts")
	heartbeat := fs.Duration("heartbeat", 0, "lease heartbeat interval (0 = a third of the lease TTL)")
	runFor := fs.Duration("for", 0, "work for this long, then drain (0 = until SIGINT/SIGTERM or -exit-when-idle)")
	exitIdle := fs.Bool("exit-when-idle", false, "exit once the daemon reports no queued work remains")
	quiet := fs.Bool("quiet", false, "suppress per-lease log lines")
	return func(w io.Writer, s *core.Spack, _ []string) error {
		if *url == "" {
			return fmt.Errorf("work: -url is required")
		}
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}

		// This machine's binary cache reads and writes through the daemon's
		// blob API: dependency pulls come from archives other workers
		// pushed, and this worker's builds land where dependents find them.
		cache := buildcache.New(service.NewHTTPBackend(*url))
		s.Builder.Cache = cache
		s.BuildCache = cache

		logw := io.Writer(w)
		if *quiet {
			logw = io.Discard
		}
		worker := &service.Worker{
			Client:         service.NewClient(*url),
			Builder:        s.Builder,
			Push:           cache,
			Name:           *name,
			Poll:           *poll,
			HeartbeatEvery: *heartbeat,
			ExitWhenIdle:   *exitIdle,
			Log:            logw,
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if *runFor > 0 {
			ctx, cancel = context.WithTimeout(ctx, *runFor)
			defer cancel()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			select {
			case <-sig:
				fmt.Fprintf(w, "==> draining: finishing in-flight lease\n")
				cancel()
			case <-ctx.Done():
			}
		}()

		fmt.Fprintf(w, "==> worker %s leasing from %s\n", *name, *url)
		st, err := worker.Run(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "==> worker done: %d leases, %d built (%d from source), %d duplicate, %d failed, %d lost\n",
			st.Leases, st.Built, st.SourceBuilt, st.Duplicates, st.Failed, st.Lost)
		return nil
	}
}
