package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/sched"
	"repro/internal/spec"
)

// scheduler endpoints — the distributed half of the daemon. A client
// submits a concretized DAG as a job; workers claim ready nodes as
// TTL-bounded leases, build them, push the archive through the blob
// API, and report completion, which the daemon verifies against the
// recorded SHA-256 before unlocking dependents.
//
//	POST /v1/jobs                      submit a DAG (spec expression), returns JobStatus
//	GET  /v1/jobs/{id}                 poll a job
//	POST /v1/leases                    claim a ready node ({"worker": name})
//	POST /v1/leases/{id}/heartbeat     extend a lease TTL
//	POST /v1/leases/{id}/complete      archive pushed; verify + unlock dependents
//	POST /v1/leases/{id}/fail          give the node back (bounded retries)

// LeaseRequest is the body of POST /v1/leases.
type LeaseRequest struct {
	// Worker names the claiming worker (for stats and trace attribution).
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease claim. Lease is nil when nothing is
// ready right now; Empty additionally reports that no queued work
// remains at all (every node is terminal), which is a worker's signal
// to exit rather than poll.
type LeaseResponse struct {
	Lease    *sched.Lease `json:"lease,omitempty"`
	Empty    bool         `json:"empty"`
	Draining bool         `json:"draining"`
}

// CompleteRequest is the body of POST /v1/leases/{id}/complete.
type CompleteRequest struct {
	// VirtualMS is the worker's virtual build duration for the node,
	// recorded in the scheduler trace for makespan replay.
	VirtualMS float64 `json:"virtual_ms"`
	// SourceBuilt reports the node was compiled (vs pulled or reused).
	SourceBuilt bool `json:"source_built"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Duplicate reports the node was already built (idempotent retry or
	// a reclaimed lease racing its replacement).
	Duplicate bool `json:"duplicate"`
}

// FailRequest is the body of POST /v1/leases/{id}/fail.
type FailRequest struct {
	Reason string `json:"reason"`
}

// newScheduler wires the lease scheduler to the daemon's blob store:
// dedup consults the server store and the mirror's build_cache/ area,
// and completion verification checks the pushed archive against its
// recorded SHA-256.
func (s *Server) newScheduler() *sched.Scheduler {
	// s.bc is the server's shared buildcache view — the same ReuseSource
	// the reuse concretizer reads, so scheduler dedup and `-reuse`
	// answers agree on what "already built" means.
	cache := s.bc
	return sched.New(sched.Config{
		LeaseTTL:    s.cfg.LeaseTTL,
		MaxAttempts: s.cfg.MaxAttempts,
		Prebuilt: func(n *spec.Spec) bool {
			if s.cfg.Builder != nil {
				if _, ok := s.cfg.Builder.Store.Lookup(n); ok {
					return true
				}
			}
			return cache.Has(n.FullHash())
		},
		Verify: cache.Verify,
	})
}

// Scheduler exposes the embedded lease scheduler (stats, trace, and
// in-process workers in tests and benchmarks).
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// Drain stops issuing leases and waits until every outstanding lease
// has completed or expired — bounded by the lease TTL via the caller's
// context — so SIGTERM does not strand half-built nodes in the leased
// state past shutdown.
func (s *Server) Drain(ctx context.Context) {
	s.sched.Drain()
	for s.sched.Outstanding() > 0 {
		ch := s.sched.Watch()
		if s.sched.Outstanding() == 0 {
			return
		}
		select {
		case <-ch:
		case <-time.After(250 * time.Millisecond):
			// Lease expiry is time-driven; poke the reaper so an
			// abandoned lease cannot outlive its TTL just because no
			// other traffic arrives.
			s.sched.Reap()
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	concrete, _, ok := s.concretizeRequest(w, r)
	if !ok {
		return
	}
	js, err := s.sched.Submit(concrete)
	if err != nil {
		http.Error(w, "submit: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, js)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	js, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job: "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, js)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	l, empty := s.sched.Lease(req.Worker)
	st := s.sched.Stats()
	if l != nil {
		// A granted lease is the endpoint's "hit".
		s.stats.leases.hits.Add(1)
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Lease: l, Empty: empty, Draining: st.Draining})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := s.sched.Heartbeat(r.PathValue("id")); err != nil {
		leaseError(w, "heartbeat", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	virtual := time.Duration(req.VirtualMS * float64(time.Millisecond))
	dup, err := s.sched.Complete(r.PathValue("id"), virtual, req.SourceBuilt)
	if err != nil {
		leaseError(w, "complete", err)
		return
	}
	writeJSON(w, http.StatusOK, CompleteResponse{Duplicate: dup})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.sched.Fail(r.PathValue("id"), req.Reason); err != nil {
		leaseError(w, "fail", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// leaseError maps scheduler errors onto the lease protocol's statuses:
// 404 unknown lease, 410 lease lost to TTL reclamation, 409 archive
// verification rejected the completion.
func leaseError(w http.ResponseWriter, op string, err error) {
	status := http.StatusInternalServerError
	var ve *sched.VerifyError
	switch {
	case errors.Is(err, sched.ErrUnknownLease):
		status = http.StatusNotFound
	case errors.Is(err, sched.ErrLeaseExpired):
		status = http.StatusGone
	case errors.As(err, &ve):
		status = http.StatusConflict
	}
	http.Error(w, op+": "+err.Error(), status)
}
