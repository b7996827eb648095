package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/syntax"
)

// newSchedDaemon wires a daemon with scheduler knobs suited to fault
// tests (short TTL so reclamation happens in test time).
func newSchedDaemon(t testing.TB, ttl time.Duration, maxAttempts int) (*core.Spack, *service.Server, string) {
	t.Helper()
	s := core.MustNew(core.WithJobs(4))
	srv := service.NewServer(service.Config{
		Mirror:      s.Mirror,
		Concretizer: s.Concretizer,
		Builder:     s.Builder,
		LeaseTTL:    ttl,
		MaxAttempts: maxAttempts,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return s, srv, "http://" + addr
}

// newWorker assembles a Worker on its own fresh machine whose binary
// cache reads and writes through the daemon's blob API.
func newWorker(url, name string) *service.Worker {
	m := core.MustNew(core.WithJobs(1), core.WithBuildCacheBackend(service.NewHTTPBackend(url)))
	return &service.Worker{
		Client:       service.NewClient(url),
		Builder:      m.Builder,
		Push:         m.BuildCache,
		Name:         name,
		ExitWhenIdle: true,
	}
}

func TestDistributedJobCompletes(t *testing.T) {
	_, srv, url := newSchedDaemon(t, time.Minute, 3)
	client := service.NewClient(url)

	js, err := client.SubmitJob("mpileaks")
	if err != nil {
		t.Fatal(err)
	}
	queued := js.Total - js.Prebuilt
	if queued < 3 {
		t.Fatalf("job queued only %d nodes: %+v", queued, js)
	}

	const n = 3
	stats := make([]service.WorkerStats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWorker(url, "w"+string(rune('0'+i)))
			st, err := w.Run(context.Background())
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()

	final, err := client.Job(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Failed != 0 || final.Built != queued {
		t.Fatalf("final job = %+v, want done with %d built", final, queued)
	}

	// Every queued node was source-built by exactly one worker: the
	// trace has one entry per node, each marked source-built, and the
	// workers' own counters sum to the node count.
	trace := srv.Scheduler().Trace()
	seen := map[string]int{}
	totalSource := 0
	for _, e := range trace {
		seen[e.Hash]++
		if !e.SourceBuilt {
			t.Errorf("node %s (%s) was not source-built on its worker", e.Name, e.Hash)
		}
	}
	for h, c := range seen {
		if c != 1 {
			t.Errorf("node %s appears %d times in trace, want 1", h, c)
		}
	}
	for _, st := range stats {
		totalSource += st.SourceBuilt
	}
	if len(seen) != queued || totalSource != queued {
		t.Fatalf("trace covers %d nodes, workers source-built %d, want %d each", len(seen), totalSource, queued)
	}

	sst := srv.Stats()
	if sst.Sched.Built != queued || sst.Sched.JobsDone != 1 {
		t.Fatalf("sched gauges = %+v, want %d built and 1 job done", sst.Sched, queued)
	}
	if sst.Leases.Requests == 0 || sst.Jobs.Requests == 0 {
		t.Fatalf("endpoint stats missing jobs/leases traffic: %+v", sst)
	}
}

func TestWorkerKilledMidBuildIsReclaimed(t *testing.T) {
	_, srv, url := newSchedDaemon(t, 300*time.Millisecond, 3)
	client := service.NewClient(url)

	js, err := client.SubmitJob("libdwarf")
	if err != nil {
		t.Fatal(err)
	}

	// A worker claims the leaf and dies without heartbeating.
	resp, err := client.Lease("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatal("no lease granted to the doomed worker")
	}

	// A healthy worker picks up the job once the TTL lapses.
	st, err := newWorker(url, "healthy").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Job(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Failed != 0 {
		t.Fatalf("final job = %+v, want completed despite the killed worker", final)
	}
	if got := srv.Stats().Sched.Reclaimed; got != 1 {
		t.Fatalf("reclaimed leases = %d, want 1", got)
	}
	if st.Built == 0 {
		t.Fatalf("healthy worker stats = %+v, want builds", st)
	}
	// The dead worker's late complete is refused: the node moved on.
	if _, err := client.Complete(resp.Lease.ID, time.Second, true); !errors.Is(err, service.ErrLeaseLost) {
		// Unless its node was rebuilt identically, in which case the
		// duplicate path answers — both are acceptable protocol
		// outcomes, but silence is not.
		if err != nil {
			t.Fatalf("zombie complete err = %v, want ErrLeaseLost or duplicate", err)
		}
	}
}

func TestDuplicateCompleteIdempotentOverHTTP(t *testing.T) {
	_, _, url := newSchedDaemon(t, time.Minute, 3)
	client := service.NewClient(url)
	if _, err := client.SubmitJob("libelf"); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	l := resp.Lease
	if l == nil {
		t.Fatal("no lease")
	}
	// Build and push for real so verification passes.
	m := core.MustNew(core.WithJobs(1), core.WithBuildCacheBackend(service.NewHTTPBackend(url)))
	root, err := syntax.DecodeJSON(l.DAG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Builder.Build(root); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BuildCache.Push(m.Store, root); err != nil {
		t.Fatal(err)
	}
	dup, err := client.Complete(l.ID, time.Second, true)
	if err != nil || dup {
		t.Fatalf("first complete = dup %v err %v", dup, err)
	}
	for i := 0; i < 2; i++ {
		dup, err := client.Complete(l.ID, time.Second, true)
		if err != nil || !dup {
			t.Fatalf("repeat complete %d = dup %v err %v, want duplicate", i, dup, err)
		}
	}
}

func TestCompleteWithMissingOrCorruptArchiveRejected(t *testing.T) {
	daemon, srv, url := newSchedDaemon(t, time.Minute, 5)
	client := service.NewClient(url)
	if _, err := client.SubmitJob("libelf"); err != nil {
		t.Fatal(err)
	}

	// Claim the node and complete WITHOUT pushing: no archive, no
	// checksum — rejected, node re-queued.
	resp, err := client.Lease("liar")
	if err != nil {
		t.Fatal(err)
	}
	l := resp.Lease
	if l == nil {
		t.Fatal("no lease")
	}
	if _, err := client.Complete(l.ID, time.Second, true); !errors.Is(err, service.ErrVerifyRejected) {
		t.Fatalf("complete without archive err = %v, want ErrVerifyRejected", err)
	}

	// Claim again, push a real archive, then corrupt it in place: the
	// recorded checksum no longer matches — rejected again.
	resp, err = client.Lease("corruptor")
	if err != nil {
		t.Fatal(err)
	}
	l = resp.Lease
	if l == nil {
		t.Fatal("no re-lease after rejection")
	}
	if l.Attempt != 2 {
		t.Fatalf("re-lease attempt = %d, want 2", l.Attempt)
	}
	m := core.MustNew(core.WithJobs(1), core.WithBuildCacheBackend(service.NewHTTPBackend(url)))
	root, err := syntax.DecodeJSON(l.DAG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Builder.Build(root); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BuildCache.Push(m.Store, root); err != nil {
		t.Fatal(err)
	}
	daemon.Mirror.PutBlob("build_cache/"+l.FullHash+".spack.json", []byte("torn archive"))
	if _, err := client.Complete(l.ID, time.Second, true); !errors.Is(err, service.ErrVerifyRejected) {
		t.Fatalf("complete with corrupt archive err = %v, want ErrVerifyRejected", err)
	}
	if got := srv.Stats().Sched.Rejected; got != 2 {
		t.Fatalf("rejected completions = %d, want 2", got)
	}

	// Third time honest: re-push intact and complete.
	resp, err = client.Lease("honest")
	if err != nil {
		t.Fatal(err)
	}
	l = resp.Lease
	if l == nil {
		t.Fatal("no lease for the honest worker")
	}
	if _, err := m.BuildCache.Push(m.Store, root); err != nil {
		t.Fatal(err)
	}
	dup, err := client.Complete(l.ID, time.Second, false)
	if err != nil || dup {
		t.Fatalf("honest complete = dup %v err %v", dup, err)
	}
}

func TestFailedConePoisonsDependents(t *testing.T) {
	_, _, url := newSchedDaemon(t, time.Minute, 1)
	client := service.NewClient(url)
	js, err := client.SubmitJob("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatal("no lease")
	}
	if err := client.Fail(resp.Lease.ID, "compiler exploded"); err != nil {
		t.Fatal(err)
	}
	final, err := client.Job(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Failed != final.Total-final.Prebuilt {
		t.Fatalf("poisoned job = %+v, want every queued node failed", final)
	}
	if !strings.Contains(final.Error, "compiler exploded") {
		t.Fatalf("job error %q does not carry the failure reason", final.Error)
	}
}

func TestDrainRefusesLeasesAndWaits(t *testing.T) {
	_, srv, url := newSchedDaemon(t, 250*time.Millisecond, 3)
	client := service.NewClient(url)
	if _, err := client.SubmitJob("libdwarf"); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatal("no lease before drain")
	}

	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
		close(done)
	}()

	// While draining, new leases are refused even though a node is
	// ready-adjacent.
	time.Sleep(20 * time.Millisecond)
	r2, err := client.Lease("late")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Lease != nil || !r2.Draining {
		t.Fatalf("lease during drain = %+v, want refusal with draining flag", r2)
	}

	// Drain returns once the outstanding lease expires (bounded by TTL).
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("drain did not return within the TTL bound")
	}
	if srv.Scheduler().Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", srv.Scheduler().Outstanding())
	}
}

// TestLeaseBytesIn checks that the daemon counts the request bodies of
// the lease endpoints — every byte the client sent, not just the bodies
// a handler chose to count.
func TestLeaseBytesIn(t *testing.T) {
	_, srv, url := newSchedDaemon(t, time.Minute, 3)
	client := service.NewClient(url)
	if _, err := client.Lease("w1"); err != nil {
		t.Fatal(err)
	}
	// Unknown leases: the bodies are still read (and refused) in full.
	if _, err := client.Complete("no-such-lease", time.Second, true); err == nil {
		t.Fatal("complete of an unknown lease succeeded")
	}
	if err := client.Fail("no-such-lease", "boom"); err == nil {
		t.Fatal("fail of an unknown lease succeeded")
	}
	var want int64
	for _, body := range []any{
		service.LeaseRequest{Worker: "w1"},
		service.CompleteRequest{VirtualMS: 1000, SourceBuilt: true},
		service.FailRequest{Reason: "boom"},
	} {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(data))
	}
	if got := srv.Stats().Leases.BytesIn; got != want {
		t.Fatalf("leases bytes_in = %d, want %d", got, want)
	}
}
