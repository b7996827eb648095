// Package sched is the distributed half of the §3.5 build model: a
// DAG-aware lease scheduler the service daemon embeds so remote workers
// can farm a concretized DAG in parallel, the way production package
// pipelines farm chroot workers off a shared dependency graph.
//
// A submitted job is a concrete root spec. Every non-prebuilt node
// (deduplicated by full hash against the store, the binary cache, and
// nodes already queued by other jobs) enters the state machine
//
//	waiting ──deps built──▶ ready ──POST /v1/leases──▶ leased
//	leased ──complete (archive verified)──▶ built
//	leased ──fail / TTL expiry──▶ ready        (attempts < max)
//	leased ──fail / TTL expiry──▶ failed       (attempts exhausted)
//	failed ──poisons──▶ every transitive dependent
//
// A lease carries a TTL; heartbeats extend it, and a worker that dies
// mid-build loses the lease to reclamation, so the node is re-leased to
// a healthy worker with a bounded attempt budget. Completion is gated
// on the built archive already existing on the daemon's blob store
// (verified against its recorded SHA-256) — a node is "built" only
// when its bytes are fetchable by dependents and by the assembling
// client. Duplicate completes are idempotent.
//
// The scheduler also records a trace of every successful build
// (worker, lease order, virtual duration, dependency edges) from which
// Makespan replays the realized schedule — the figure of merit the
// bench suite scales over worker counts.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// State is a node's position in the lease state machine.
type State string

const (
	// StateWaiting: at least one dependency is not built yet.
	StateWaiting State = "waiting"
	// StateReady: every dependency is built; the node can be leased.
	StateReady State = "ready"
	// StateLeased: a worker holds the node under a live lease.
	StateLeased State = "leased"
	// StateBuilt: the node's archive is on the blob store, verified.
	StateBuilt State = "built"
	// StateFailed: attempts exhausted, or a dependency poisoned it.
	StateFailed State = "failed"
)

// Errors the API layer maps onto HTTP statuses.
var (
	// ErrUnknownLease: the lease id was never issued.
	ErrUnknownLease = errors.New("sched: unknown lease")
	// ErrLeaseExpired: the lease was reclaimed (TTL expiry or explicit
	// fail) and its node re-leased or finished elsewhere.
	ErrLeaseExpired = errors.New("sched: lease expired")
)

// VerifyError wraps an archive-verification failure on complete: the
// worker claimed success but the blob store holds no valid archive.
type VerifyError struct{ Err error }

func (e *VerifyError) Error() string { return "sched: verify archive: " + e.Err.Error() }
func (e *VerifyError) Unwrap() error { return e.Err }

// Config wires a Scheduler to its environment.
type Config struct {
	// LeaseTTL is how long a lease lives between heartbeats before the
	// node is reclaimed (default 2 minutes).
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases a node may consume before it
	// is poisoned along with its dependent cone (default 3).
	MaxAttempts int
	// Prebuilt reports nodes that need no build: externals, hashes
	// already archived on the blob store, hashes installed in the
	// daemon's own store. They are counted but never queued.
	Prebuilt func(n *spec.Spec) bool
	// Verify gates Complete: it must confirm the node's archive exists
	// on the blob store and matches its recorded SHA-256. nil disables
	// the gate (unit tests).
	Verify func(fullHash string) error
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

// node is one DAG configuration, shared by every job that references
// its full hash.
type node struct {
	hash     string
	name     string
	specStr  string
	dag      []byte // encoded subtree, the lease payload
	external bool

	state    State
	attempts int
	failMsg  string

	pendingDeps map[string]*node // unbuilt queued dependencies
	depHashes   []string         // all queued direct deps (trace edges)
	dependents  map[string]*node
	lease       *lease
}

// lease is one issued claim on a node.
type lease struct {
	id       string
	node     *node
	worker   string
	seq      int64
	deadline time.Time
	done     bool // completed successfully
	dead     bool // expired, failed, or rejected — node no longer ours
}

// job is one submitted DAG, referencing shared nodes.
type job struct {
	id       string
	rootSpec string
	rootHash string
	nodes    map[string]*node
	prebuilt int
}

// Scheduler owns the node table, the jobs, and the lease book.
type Scheduler struct {
	mu  sync.Mutex
	cfg Config

	nodes  map[string]*node
	jobs   map[string]*job
	leases map[string]*lease

	jobSeq   int64
	leaseSeq int64
	draining bool

	reclaimed int64
	rejected  int64
	trace     []TraceEntry
	workers   map[string]time.Time

	change chan struct{}
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Scheduler{
		cfg:     cfg,
		nodes:   make(map[string]*node),
		jobs:    make(map[string]*job),
		leases:  make(map[string]*lease),
		workers: make(map[string]time.Time),
		change:  make(chan struct{}),
	}
}

// notify wakes every Watch waiter; callers hold s.mu.
func (s *Scheduler) notify() {
	close(s.change)
	s.change = make(chan struct{})
}

// Watch returns a channel closed at the next state transition. Callers
// snapshot state, grab the channel, then re-check after it closes (or
// after their own timeout).
func (s *Scheduler) Watch() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.change
}

// JobStatus is the wire snapshot of one job.
type JobStatus struct {
	ID       string `json:"id"`
	Root     string `json:"root"`
	FullHash string `json:"full_hash"`
	// Total counts every DAG node: scheduled plus prebuilt.
	Total    int `json:"total"`
	Prebuilt int `json:"prebuilt"`
	Waiting  int `json:"waiting"`
	Ready    int `json:"ready"`
	Leased   int `json:"leased"`
	Built    int `json:"built"`
	Failed   int `json:"failed"`
	// Done: every scheduled node is terminal (built or failed).
	Done bool `json:"done"`
	// Error is the first failure message when any node failed.
	Error string `json:"error,omitempty"`
}

// Lease is the wire form of an issued lease: everything a worker needs
// to build the node and report back.
type Lease struct {
	ID       string `json:"id"`
	FullHash string `json:"full_hash"`
	Name     string `json:"name"`
	Spec     string `json:"spec"`
	// DAG is the node's concrete subtree in compact spec JSON
	// (syntax.AppendJSON); the worker decodes it and builds bottom-up,
	// pulling archived deps.
	DAG []byte `json:"dag"`
	// TTLMS is the lease's time budget between heartbeats.
	TTLMS int64 `json:"ttl_ms"`
	// Attempt is 1 for the first lease of a node, higher on re-lease.
	Attempt int `json:"attempt"`
}

// Stats is the scheduler gauge set /v1/stats embeds.
type Stats struct {
	Jobs     int `json:"jobs"`
	JobsDone int `json:"jobs_done"`
	Waiting  int `json:"waiting"`
	Ready    int `json:"ready"`
	Leased   int `json:"leased"`
	Built    int `json:"built"`
	Failed   int `json:"failed"`
	Prebuilt int `json:"prebuilt"`
	// Reclaimed counts leases lost to TTL expiry.
	Reclaimed int64 `json:"reclaimed"`
	// Rejected counts completes refused because the archive was
	// missing or failed SHA-256 verification.
	Rejected int64 `json:"rejected"`
	// Workers is how many distinct workers were active recently
	// (within two lease TTLs).
	Workers  int  `json:"workers"`
	Draining bool `json:"draining,omitempty"`
}

// TraceEntry records one successful node build for makespan replay.
type TraceEntry struct {
	Hash   string
	Name   string
	Worker string
	// Seq is the lease-issue sequence — a valid topological order of
	// the realized schedule.
	Seq int64
	// Virtual is the worker-reported simulated build duration.
	Virtual time.Duration
	// SourceBuilt is whether the worker compiled the node (vs. pulling
	// an archive that appeared between lease and build).
	SourceBuilt bool
	// Deps are the full hashes of the node's queued direct deps.
	Deps []string
}

// Submit queues a concrete DAG as a job. Nodes are deduplicated by
// full hash against prebuilt state and against nodes other jobs
// already queued; a previously failed node is revived with a fresh
// attempt budget so resubmission retries the cone.
func (s *Scheduler) Submit(root *spec.Spec) (JobStatus, error) {
	if root == nil || !root.Concrete() {
		return JobStatus{}, fmt.Errorf("sched: submit needs a concrete spec")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	s.jobSeq++
	j := &job{
		id:       fmt.Sprintf("J%06d", s.jobSeq),
		rootSpec: root.String(),
		rootHash: root.FullHash(),
		nodes:    make(map[string]*node),
	}
	for _, n := range root.TopoOrder() {
		hash := n.FullHash()
		if existing, ok := s.nodes[hash]; ok {
			if existing.state == StateFailed {
				s.revive(existing)
			}
			j.nodes[hash] = existing
			continue
		}
		if n.External || (s.cfg.Prebuilt != nil && s.cfg.Prebuilt(n)) {
			j.prebuilt++
			continue
		}
		dag := syntax.AppendJSON(nil, n, false)
		nd := &node{
			hash:        hash,
			name:        n.Name,
			specStr:     n.String(),
			dag:         dag,
			external:    n.External,
			state:       StateReady,
			pendingDeps: make(map[string]*node),
			dependents:  make(map[string]*node),
		}
		// TopoOrder visits dependencies first, so every queued direct
		// dep is already in the table; prebuilt deps are simply absent
		// (nothing to wait for).
		for _, d := range n.DirectDeps() {
			dh := d.FullHash()
			dep, ok := s.nodes[dh]
			if !ok {
				continue
			}
			nd.depHashes = append(nd.depHashes, dh)
			dep.dependents[hash] = nd
			if dep.state != StateBuilt {
				nd.pendingDeps[dh] = dep
				nd.state = StateWaiting
			}
		}
		s.nodes[hash] = nd
		j.nodes[hash] = nd
	}
	s.jobs[j.id] = j
	s.notify()
	return s.jobStatus(j), nil
}

// revive resets a failed node for a fresh attempt budget; callers hold
// s.mu. Pending deps are recomputed, since deps may have been built
// (or failed) since the node was poisoned.
func (s *Scheduler) revive(n *node) {
	n.attempts = 0
	n.failMsg = ""
	n.lease = nil
	n.pendingDeps = make(map[string]*node)
	for _, dh := range n.depHashes {
		if dep, ok := s.nodes[dh]; ok && dep.state != StateBuilt {
			n.pendingDeps[dh] = dep
		}
	}
	if len(n.pendingDeps) == 0 {
		n.state = StateReady
	} else {
		n.state = StateWaiting
	}
}

// Job snapshots one job's status.
func (s *Scheduler) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.jobStatus(j), true
}

// jobStatus computes a snapshot; callers hold s.mu.
func (s *Scheduler) jobStatus(j *job) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Root:     j.rootSpec,
		FullHash: j.rootHash,
		Prebuilt: j.prebuilt,
		Total:    len(j.nodes) + j.prebuilt,
	}
	for _, n := range j.nodes {
		switch n.state {
		case StateWaiting:
			st.Waiting++
		case StateReady:
			st.Ready++
		case StateLeased:
			st.Leased++
		case StateBuilt:
			st.Built++
		case StateFailed:
			st.Failed++
			if st.Error == "" || n.failMsg < st.Error {
				st.Error = n.failMsg
			}
		}
	}
	st.Done = st.Waiting+st.Ready+st.Leased == 0
	return st
}

// Lease claims the alphabetically-first ready node for a worker. A nil
// lease with empty=true means no job has pending work at all (a
// drain-aware worker may exit); empty=false means work exists but
// nothing is ready right now (poll again).
func (s *Scheduler) Lease(worker string) (l *Lease, empty bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	s.reap()
	s.workers[worker] = now

	if s.draining {
		return nil, s.pendingLocked() == 0
	}
	var pick *node
	pending := 0
	for _, n := range s.nodes {
		switch n.state {
		case StateWaiting, StateLeased:
			pending++
		case StateReady:
			pending++
			if pick == nil || n.name < pick.name ||
				(n.name == pick.name && n.hash < pick.hash) {
				pick = n
			}
		}
	}
	if pick == nil {
		return nil, pending == 0
	}

	pick.attempts++
	pick.state = StateLeased
	s.leaseSeq++
	lh := &lease{
		id:       fmt.Sprintf("L%06d", s.leaseSeq),
		node:     pick,
		worker:   worker,
		seq:      s.leaseSeq,
		deadline: now.Add(s.cfg.LeaseTTL),
	}
	pick.lease = lh
	s.leases[lh.id] = lh
	s.notify()
	return &Lease{
		ID:       lh.id,
		FullHash: pick.hash,
		Name:     pick.name,
		Spec:     pick.specStr,
		DAG:      pick.dag,
		TTLMS:    s.cfg.LeaseTTL.Milliseconds(),
		Attempt:  pick.attempts,
	}, false
}

// Heartbeat extends a live lease's deadline by one TTL.
func (s *Scheduler) Heartbeat(leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	l, ok := s.leases[leaseID]
	if !ok {
		return ErrUnknownLease
	}
	if l.done {
		return nil // completed; nothing to extend, nothing wrong
	}
	if l.dead {
		return ErrLeaseExpired
	}
	now := s.cfg.Now()
	l.deadline = now.Add(s.cfg.LeaseTTL)
	s.workers[l.worker] = now
	return nil
}

// Complete reports a finished build. The archive must already be on
// the blob store: Verify gates the transition, and a missing or
// corrupt archive rejects the complete and re-leases the node (the
// attempt is spent). Duplicate completes of an already-built node are
// idempotent.
func (s *Scheduler) Complete(leaseID string, virtual time.Duration, sourceBuilt bool) (duplicate bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	l, ok := s.leases[leaseID]
	if !ok {
		return false, ErrUnknownLease
	}
	if l.done {
		return true, nil
	}
	if l.dead {
		if l.node.state == StateBuilt {
			// Reclaimed, re-leased, and finished elsewhere — the work
			// stands, so this late report is a harmless duplicate.
			return true, nil
		}
		return false, ErrLeaseExpired
	}

	n := l.node
	if s.cfg.Verify != nil {
		if verr := s.cfg.Verify(n.hash); verr != nil {
			s.rejected++
			l.dead = true
			n.lease = nil
			s.requeueOrPoison(n, fmt.Sprintf("archive verification failed: %v", verr))
			s.notify()
			return false, &VerifyError{Err: verr}
		}
	}

	l.done = true
	n.lease = nil
	n.state = StateBuilt
	s.workers[l.worker] = s.cfg.Now()
	s.trace = append(s.trace, TraceEntry{
		Hash: n.hash, Name: n.name, Worker: l.worker, Seq: l.seq,
		Virtual: virtual, SourceBuilt: sourceBuilt, Deps: n.depHashes,
	})
	for _, dep := range n.dependents {
		delete(dep.pendingDeps, n.hash)
		if dep.state == StateWaiting && len(dep.pendingDeps) == 0 {
			dep.state = StateReady
		}
	}
	s.notify()
	return false, nil
}

// Fail reports a failed build attempt: the node is re-leased while
// attempts remain, then poisoned along with its dependent cone. A fail
// against an already-reclaimed lease is a no-op (the scheduler got
// there first).
func (s *Scheduler) Fail(leaseID, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	l, ok := s.leases[leaseID]
	if !ok {
		return ErrUnknownLease
	}
	if l.done {
		return fmt.Errorf("sched: lease %s already completed", leaseID)
	}
	if l.dead {
		return nil
	}
	l.dead = true
	l.node.lease = nil
	if reason == "" {
		reason = "worker reported failure"
	}
	s.requeueOrPoison(l.node, reason)
	s.notify()
	return nil
}

// requeueOrPoison returns a node to the ready queue while its attempt
// budget lasts, else poisons it and its dependent cone; callers hold
// s.mu.
func (s *Scheduler) requeueOrPoison(n *node, reason string) {
	if n.attempts < s.cfg.MaxAttempts {
		n.state = StateReady
		return
	}
	s.poison(n, fmt.Sprintf("%s (after %d attempts)", reason, n.attempts))
}

// poison marks a node failed and cascades to every transitive
// dependent that is not already terminal; callers hold s.mu.
func (s *Scheduler) poison(n *node, reason string) {
	n.state = StateFailed
	n.failMsg = reason
	queue := []*node{n}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, dep := range cur.dependents {
			if dep.state == StateBuilt || dep.state == StateFailed {
				continue
			}
			if dep.lease != nil {
				dep.lease.dead = true
				dep.lease = nil
			}
			dep.state = StateFailed
			dep.failMsg = fmt.Sprintf("dependency %s failed: %s", cur.name, cur.failMsg)
			queue = append(queue, dep)
		}
	}
}

// reap reclaims every lease past its deadline; callers hold s.mu.
func (s *Scheduler) reap() {
	now := s.cfg.Now()
	changed := false
	for _, l := range s.leases {
		if l.done || l.dead || !l.deadline.Before(now) {
			continue
		}
		l.dead = true
		s.reclaimed++
		if l.node.lease == l {
			l.node.lease = nil
			s.requeueOrPoison(l.node, "lease expired (worker lost)")
		}
		changed = true
	}
	if changed {
		s.notify()
	}
}

// Reap runs a reclamation pass and reports how many leases have been
// reclaimed in total.
func (s *Scheduler) Reap() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	return s.reclaimed
}

// Drain stops issuing leases; outstanding leases run to completion or
// TTL expiry. Used by graceful shutdown.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.notify()
}

// Outstanding counts nodes currently under a live lease.
func (s *Scheduler) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	n := 0
	for _, nd := range s.nodes {
		if nd.state == StateLeased {
			n++
		}
	}
	return n
}

// pendingLocked counts non-terminal nodes; callers hold s.mu.
func (s *Scheduler) pendingLocked() int {
	n := 0
	for _, nd := range s.nodes {
		switch nd.state {
		case StateWaiting, StateReady, StateLeased:
			n++
		}
	}
	return n
}

// Stats snapshots the scheduler gauges.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reap()
	st := Stats{
		Jobs:      len(s.jobs),
		Reclaimed: s.reclaimed,
		Rejected:  s.rejected,
		Draining:  s.draining,
	}
	for _, j := range s.jobs {
		js := s.jobStatus(j)
		if js.Done {
			st.JobsDone++
		}
		st.Prebuilt += j.prebuilt
	}
	for _, n := range s.nodes {
		switch n.state {
		case StateWaiting:
			st.Waiting++
		case StateReady:
			st.Ready++
		case StateLeased:
			st.Leased++
		case StateBuilt:
			st.Built++
		case StateFailed:
			st.Failed++
		}
	}
	cutoff := s.cfg.Now().Add(-2 * s.cfg.LeaseTTL)
	for _, seen := range s.workers {
		if seen.After(cutoff) {
			st.Workers++
		}
	}
	return st
}

// Trace returns a copy of the build trace so far, in lease order.
func (s *Scheduler) Trace() []TraceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceEntry, len(s.trace))
	copy(out, s.trace)
	return out
}
