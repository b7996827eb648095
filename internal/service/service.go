// Package service is the buildcache-as-a-service daemon: a net/http
// front end over the store + mirror that turns the paper's §4 one-site-
// pushes-many-pull deployment into a long-running multi-client service.
//
// The daemon exposes three request families:
//
//   - content-addressed blobs (GET/PUT/HEAD /v1/blobs/{name}) with
//     SHA-256 ETags, If-None-Match conditional gets, and Range reads —
//     the byte transport remote buildcache backends (HTTPBackend) push
//     and pull relocatable archives through;
//   - POST /v1/concretize, answered from the shared concretizer memo
//     cache so a fleet of clients amortizes one solve;
//   - POST /v1/install with server-side per-full-hash singleflight: a
//     thundering herd of clients installing the same spec triggers
//     exactly one cache-miss build, and every other request blocks on
//     (and shares) that build's outcome.
//
// The server carries request logging, per-endpoint counters (requests,
// hits, singleflight-coalesced, bytes in/out), a JSON stats endpoint,
// and graceful shutdown; `spack-go serve` wires a full machine behind
// it.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/fetch"
	"repro/internal/jsonenc"
	"repro/internal/lifecycle"
	"repro/internal/sched"
	"repro/internal/singleflight"
	"repro/internal/spec"
	"repro/internal/splice"
	"repro/internal/syntax"
)

// Config wires a Server to the machine it fronts.
type Config struct {
	// Mirror is the blob store the daemon serves; buildcache archives
	// live under its build_cache/ namespace.
	Mirror *fetch.Mirror
	// Concretizer answers /v1/concretize and resolves /v1/install
	// specs; its memo cache is the service's shared solve cache
	// (NewServer installs one when it has none).
	Concretizer *concretize.Concretizer
	// Builder performs server-side installs for /v1/install (its own
	// cache-first policy applies, so archived hashes install by
	// relocation instead of compilation).
	Builder *build.Builder
	// Log receives one line per request; nil discards.
	Log io.Writer
	// LeaseTTL bounds how long a scheduler lease lives between
	// heartbeats before the node is reclaimed (default 2m).
	LeaseTTL time.Duration
	// MaxAttempts bounds per-node build attempts before the scheduler
	// poisons the node's dependent cone (default 3).
	MaxAttempts int
	// Verifier and TrustPolicy gate the daemon's archive intake and its
	// proof-of-work checks: archive uploads must carry a valid
	// X-Spack-Signature under TrustEnforce, and the scheduler's lease
	// completion verification inherits the same policy through the
	// daemon's cache view. Zero values keep signatures off.
	Verifier    buildcache.Verifier
	TrustPolicy buildcache.TrustPolicy
	// MaxCacheBytes / MaxCacheAge self-bound the mirror's build_cache
	// area: after each archive upload that pushes the cache over budget,
	// the daemon sweeps least-recently-used archives until it fits.
	// Zero disables each bound.
	MaxCacheBytes int64
	MaxCacheAge   time.Duration
	// GC, when set, serves POST /v1/gc and scheduled maintenance; nil
	// sweeps the builder's store and the daemon's cache, no extra roots.
	GC *lifecycle.GC
	// Splicer, when set, serves POST /v1/splice: rewiring an installed
	// configuration onto a replacement dependency without rebuilding.
	Splicer *splice.Splicer
	// Keyring, when set, serves GET /v1/keys — the daemon's public
	// signing keys, so clients can `buildcache keys fetch` them instead
	// of copying hex out of band. Only public halves are ever served.
	Keyring *lifecycle.Keyring
	// MaintenanceInterval, when positive, runs scheduled self-maintenance
	// in the background: roughly every interval (with jitter, so a fleet
	// of daemons does not sweep in lockstep) the daemon garbage-collects
	// its store and prunes the cache to its configured bounds. The loop
	// stops before Shutdown returns.
	MaintenanceInterval time.Duration
}

// Server is the daemon. Create with NewServer, mount as an
// http.Handler (tests) or run with Start/Shutdown (the CLI).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	hs      *http.Server
	flights singleflight.Group[*InstallResponse]
	splices singleflight.Group[*SpliceResponse]
	stats   stats
	sched   *sched.Scheduler
	bc      *buildcache.Cache
	reuse   *concretize.Concretizer
	logMu   sync.Mutex
	// pruneMu serializes the self-bounding cache sweeps triggered by
	// archive uploads; gcMu serializes /v1/gc runs (and the maintenance
	// loop's sweeps, so a drain never races a scheduled collection).
	pruneMu sync.Mutex
	gcMu    sync.Mutex
	// maintStop/maintDone bracket the scheduled-maintenance goroutine;
	// stopMaint closes maintStop exactly once.
	maintStop chan struct{}
	maintDone chan struct{}
	stopMaint sync.Once
}

// NewServer assembles the daemon's routes around a configuration.
func NewServer(cfg Config) *Server {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	// Without a memo cache the daemon would re-solve every request, and
	// concurrent identical misses would not coalesce.
	if cfg.Concretizer != nil && cfg.Concretizer.Cache == nil {
		cfg.Concretizer.Cache = concretize.NewCache(0)
	}
	s := &Server{cfg: cfg}
	// One buildcache view over the mirror's build_cache/ area serves the
	// scheduler's dedup, completion verification, and the reuse
	// concretizer — the same "already built" facts everywhere.
	s.bc = buildcache.New(buildcache.NewMirrorBackend(cfg.Mirror))
	// Wiring the trust policy onto the daemon's cache view gates every
	// consumer at once: the scheduler's completion Verify, the reuse
	// concretizer's "already built" facts, and /v1/gc's archive sweeps.
	s.bc.Verifier = cfg.Verifier
	s.bc.Policy = cfg.TrustPolicy
	if cfg.GC == nil && cfg.Builder != nil && cfg.Builder.Store != nil {
		s.cfg.GC = &lifecycle.GC{Store: cfg.Builder.Store, Cache: s.bc}
	}
	s.reuse = s.newReuseConcretizer()
	s.sched = s.newScheduler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/blobs", s.handleBlobList)
	mux.HandleFunc("GET /v1/blobs/{name...}", s.handleBlobGet)
	mux.HandleFunc("PUT /v1/blobs/{name...}", s.handleBlobPut)
	mux.HandleFunc("DELETE /v1/blobs/{name...}", s.handleBlobDelete)
	mux.HandleFunc("POST /v1/gc", s.handleGC)
	mux.HandleFunc("POST /v1/splice", s.handleSplice)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("POST /v1/concretize", s.handleConcretize)
	mux.HandleFunc("POST /v1/install", s.handleInstall)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/leases", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.handleFail)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux = mux
	return s
}

// ServeHTTP dispatches one request through the logging and counting
// middleware. (GET patterns also match HEAD, so HEAD /v1/blobs/{name}
// is served by the blob handler with the body elided.)
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	var in *countingReader
	if r.Body != nil && r.Body != http.NoBody {
		in = &countingReader{ReadCloser: r.Body}
		r.Body = in
	}
	s.mux.ServeHTTP(cw, r)

	ep := s.stats.endpoint(r.URL.Path)
	ep.requests.Add(1)
	if in != nil {
		ep.bytesIn.Add(in.n)
	}
	ep.bytesOut.Add(cw.bytes)
	ep.observe(time.Since(start))
	// A 304 is the blob fast path: the client's cached copy validated
	// against the ETag and no payload moved.
	if cw.status == http.StatusNotModified {
		ep.hits.Add(1)
	}

	s.logf("%s %s %d %dB %v\n",
		r.Method, r.URL.Path, cw.status, cw.bytes, time.Since(start).Round(time.Microsecond))
}

// logf writes one line to the configured log; format ends in a newline.
func (s *Server) logf(format string, args ...any) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.Log, format, args...)
}

// Server timeouts for Start: a client gets readHeaderTimeout to send its
// request headers, and an idle keep-alive connection is closed after
// idleTimeout. Bodies are not timed — blob uploads may be large.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start listens on addr (use port 0 for an ephemeral port) and serves
// in the background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = s.hs.Serve(lis) }()
	s.startMaintenance()
	return lis.Addr().String(), nil
}

// Shutdown stops the maintenance loop, then stops accepting connections
// and drains in-flight requests until the context expires — coalesced
// installs finish delivering their shared result before the daemon
// exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopMaintenance()
	if s.hs == nil {
		return nil
	}
	return s.hs.Shutdown(ctx)
}

// Stats snapshots the per-endpoint counters and scheduler gauges.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.Sched = s.sched.Stats()
	return st
}

// countingReader counts the request body bytes a handler reads.
type countingReader struct {
	io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

// countingWriter records the status and payload bytes of a response.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// BlobInfo is one entry of the blob listing.
type BlobInfo struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	Sha256 string `json:"sha256"`
}

func (s *Server) handleBlobList(w http.ResponseWriter, r *http.Request) {
	names := s.cfg.Mirror.Blobs()
	out := make([]BlobInfo, 0, len(names))
	for _, name := range names {
		size, sum, ok := s.cfg.Mirror.BlobStat(name)
		if !ok {
			continue
		}
		out = append(out, BlobInfo{Name: name, Size: size, Sha256: sum})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, ok := s.cfg.Mirror.Blob(name)
	if !ok {
		http.Error(w, "no such blob: "+name, http.StatusNotFound)
		return
	}
	// The ETag is the SHA-256 the mirror recorded at PutBlob time — no
	// re-hash on the read path. ServeContent implements If-None-Match
	// (304), Range/If-Range (206), and HEAD against it.
	sum, _ := s.cfg.Mirror.BlobSum(name)
	w.Header().Set("ETag", `"`+sum+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(data))
}

func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := r.Body
	if s.cfg.MaxCacheBytes > 0 {
		// A blob larger than the whole cache budget could never be kept.
		body = http.MaxBytesReader(w, body, s.cfg.MaxCacheBytes)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return
	}
	sum := sha256.Sum256(data)
	sumHex := hex.EncodeToString(sum[:])
	// An uploader that declares the payload's digest gets end-to-end
	// integrity: a body torn in transit is rejected, not stored.
	if want := r.Header.Get("X-Content-Sha256"); want != "" && want != sumHex {
		http.Error(w, fmt.Sprintf("payload sha256 %s does not match declared %s", sumHex, want),
			http.StatusBadRequest)
		return
	}
	// Archive uploads pass the trust gate: under TrustEnforce an archive
	// must arrive with a valid X-Spack-Signature over its SHA-256 (which
	// for archive blobs is the recorded checksum). An accepted signature
	// is persisted as the archive's <hash>.sig sidecar, so pullers can
	// verify without trusting this daemon.
	isArchive := strings.HasPrefix(name, cachePrefix) && strings.HasSuffix(name, ".spack.json")
	var sigData []byte
	if isArchive {
		if h := r.Header.Get("X-Spack-Signature"); h != "" {
			sig, err := base64.StdEncoding.DecodeString(h)
			if err != nil {
				http.Error(w, "bad X-Spack-Signature: "+err.Error(), http.StatusBadRequest)
				return
			}
			sigData = sig
		}
		if s.cfg.TrustPolicy == buildcache.TrustEnforce {
			if sigData == nil {
				http.Error(w, "archive upload rejected: unsigned (trust policy is enforce)",
					http.StatusForbidden)
				return
			}
			if s.cfg.Verifier == nil {
				http.Error(w, "archive upload rejected: no keyring to verify against",
					http.StatusForbidden)
				return
			}
			if err := s.cfg.Verifier.VerifySignature(sumHex, sigData); err != nil {
				http.Error(w, "archive upload rejected: "+err.Error(), http.StatusForbidden)
				return
			}
		}
	}
	s.cfg.Mirror.PutBlob(name, data)
	if sigData != nil {
		s.cfg.Mirror.PutBlob(strings.TrimSuffix(name, ".spack.json")+".sig", sigData)
	}
	w.Header().Set("ETag", `"`+sumHex+`"`)
	w.WriteHeader(http.StatusCreated)
	if isArchive {
		s.pruneToBudget()
	}
}

func (s *Server) handleBlobDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.cfg.Mirror.BlobSum(name); !ok {
		http.Error(w, "no such blob: "+name, http.StatusNotFound)
		return
	}
	s.cfg.Mirror.DeleteBlob(name)
	w.WriteHeader(http.StatusNoContent)
}

// pruneToBudget sweeps the mirror's build_cache area back under the
// configured size/age bounds — the self-bounding half of a fleet mirror.
// Sweeps serialize; failures only log (the upload already succeeded).
func (s *Server) pruneToBudget() {
	if s.cfg.MaxCacheBytes <= 0 && s.cfg.MaxCacheAge <= 0 {
		return
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	res, err := lifecycle.Prune(s.bc, nil, lifecycle.PruneOptions{
		MaxBytes: s.cfg.MaxCacheBytes,
		MaxAge:   s.cfg.MaxCacheAge,
	})
	if err != nil {
		s.logf("prune: %v\n", err)
		return
	}
	if len(res.Evicted) > 0 {
		s.stats.pruned.Add(int64(len(res.Evicted)))
		s.logf("prune: evicted %d archives, %dB\n", len(res.Evicted), res.Reclaimed)
	}
}

// GCRequest is the body of POST /v1/gc.
type GCRequest struct {
	DryRun bool `json:"dry_run,omitempty"`
}

// GCDead is one reclaimable installation in a GCResponse.
type GCDead struct {
	Spec     string `json:"spec"`
	FullHash string `json:"full_hash"`
	Bytes    int64  `json:"bytes"`
}

// GCResponse reports a garbage-collection sweep over the daemon's store
// and cache.
type GCResponse struct {
	DryRun      bool     `json:"dry_run"`
	Roots       int      `json:"roots"`
	Live        int      `json:"live"`
	Dead        []GCDead `json:"dead,omitempty"`
	DeadBytes   int64    `json:"dead_bytes"`
	Reclaimed   int64    `json:"reclaimed"`
	Records     int      `json:"records"`
	ModuleFiles int      `json:"module_files"`
	Archives    int      `json:"archives"`
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	var req GCRequest
	if !decode(w, r, &req) {
		return
	}
	if s.cfg.GC == nil {
		http.Error(w, "daemon has no store to collect", http.StatusServiceUnavailable)
		return
	}
	s.gcMu.Lock()
	res, err := s.cfg.GC.Run(req.DryRun)
	s.gcMu.Unlock()
	if err != nil {
		http.Error(w, "gc: "+err.Error(), http.StatusInternalServerError)
		return
	}
	resp := GCResponse{
		DryRun:      req.DryRun,
		Roots:       res.Plan.Roots,
		Live:        len(res.Plan.Live),
		DeadBytes:   res.Plan.DeadBytes,
		Reclaimed:   res.Reclaimed,
		Records:     res.Records,
		ModuleFiles: res.ModuleFiles,
		Archives:    res.Archives,
	}
	for _, d := range res.Plan.Dead {
		resp.Dead = append(resp.Dead, GCDead{Spec: d.Spec, FullHash: d.FullHash, Bytes: d.Bytes})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ConcretizeRequest is the body of POST /v1/concretize, /v1/install,
// and /v1/jobs.
type ConcretizeRequest struct {
	// Spec is an abstract spec expression, e.g. "mpileaks ^mvapich2@2.0".
	Spec string `json:"spec"`
	// Reuse concretizes against what already exists on the daemon (the
	// server store plus the mirror's buildcache), preferring installed
	// and cached hashes over newest versions.
	Reuse bool `json:"reuse,omitempty"`
}

// ConcretizeErrorResponse is the 422 body for an unsatisfiable spec: the
// error text, and — when a minimal unsat core exists — the core facts and
// the rendered "why not" chain.
type ConcretizeErrorResponse struct {
	Error string `json:"error"`
	// UnsatCore lists the minimal set of input constraints whose removal
	// makes the spec satisfiable.
	UnsatCore []string `json:"unsat_core,omitempty"`
	// WhyNot is the human-readable chain (`spack-go spec --why-not`).
	WhyNot string `json:"why_not,omitempty"`
}

// ConcretizeResponse carries a concretized DAG back to the client.
type ConcretizeResponse struct {
	// Spec is the flat concrete string (readable; loses edge fidelity).
	Spec string `json:"spec"`
	// FullHash identifies the configuration (the buildcache key).
	FullHash string `json:"full_hash"`
	// DAG is the store-database spec JSON; syntax.DecodeJSON restores
	// the exact DAG, edges and all.
	DAG json.RawMessage `json:"dag"`
	// Cached reports whether the shared memo cache answered.
	Cached bool `json:"cached"`
}

func (s *Server) handleConcretize(w http.ResponseWriter, r *http.Request) {
	concrete, cached, ok := s.concretizeRequest(w, r)
	if !ok {
		return
	}
	if cached {
		s.stats.concretize.hits.Add(1)
	}
	// The answer is a ConcretizeResponse written by hand, compact, with
	// the DAG's compact spec JSON appended in place: one pass over the
	// DAG and no reflection.
	out := append(make([]byte, 0, 8<<10), `{"spec":`...)
	out = jsonenc.String(out, concrete.String())
	out = jsonenc.String(append(out, `,"full_hash":`...), concrete.FullHash())
	out = syntax.AppendJSON(append(out, `,"dag":`...), concrete, false)
	out = append(jsonenc.Bool(append(out, `,"cached":`...), cached), "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out)
}

// concretizeRequest decodes and resolves the spec body shared by the
// concretize, install, and job-submit endpoints, writing the error
// response itself when it fails.
func (s *Server) concretizeRequest(w http.ResponseWriter, r *http.Request) (concrete *spec.Spec, cached, ok bool) {
	var req ConcretizeRequest
	if !decode(w, r, &req) {
		return nil, false, false
	}
	abstract, err := syntax.Parse(req.Spec)
	if err != nil {
		http.Error(w, "parse spec: "+err.Error(), http.StatusBadRequest)
		return nil, false, false
	}
	conc := s.cfg.Concretizer
	if req.Reuse && s.reuse != nil {
		conc = s.reuse
	}
	c, cached, err := conc.ConcretizeCached(abstract)
	if err != nil {
		// The spec parsed but cannot be satisfied — the client's
		// constraint problem, not a malformed request. An unsat core, when
		// one exists, rides along so clients can render the "why not"
		// chain without re-solving.
		resp := ConcretizeErrorResponse{Error: "concretize: " + err.Error()}
		var unsat *concretize.UnsatError
		if errors.As(err, &unsat) {
			resp.UnsatCore = unsat.CoreStrings()
			resp.WhyNot = unsat.WhyNot()
		}
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return nil, false, false
	}
	return c, cached, true
}

// newReuseConcretizer derives the `-reuse` solver from the configured one:
// same repositories, policy, registry, and shared memo cache (sound — the
// cache key carries the reuse fingerprint), plus a ReuseSource over the
// server store and the mirror's buildcache. It is a separate instance so
// reuse and non-reuse requests never race on one concretizer's snapshot.
func (s *Server) newReuseConcretizer() *concretize.Concretizer {
	base := s.cfg.Concretizer
	if base == nil {
		return nil
	}
	rc := concretize.New(base.Path, base.Config, base.Registry)
	rc.Backtracking = base.Backtracking
	rc.Cache = base.Cache
	var srcs []concretize.ReuseSource
	if s.cfg.Builder != nil && s.cfg.Builder.Store != nil {
		srcs = append(srcs, s.cfg.Builder.Store)
	}
	srcs = append(srcs, s.bc)
	rc.Reuse = concretize.MultiReuse(srcs...)
	return rc
}

// InstallResponse reports one server-side install.
type InstallResponse struct {
	Package  string `json:"package"`
	FullHash string `json:"full_hash"`
	Prefix   string `json:"prefix"`
	// Packages is the size of the installed DAG.
	Packages int `json:"packages"`
	// Coalesced reports that this request arrived while another client
	// was already installing the same full hash and shared its build.
	Coalesced bool `json:"coalesced"`
	// CacheHits / SourceBuilt / Reused break the leader's build down:
	// nodes pulled from the binary cache, compiled from source, and
	// already present in the store.
	CacheHits   int `json:"cache_hits"`
	SourceBuilt int `json:"source_built"`
	Reused      int `json:"reused"`
	// WallMS is the virtual makespan of the leader's build.
	WallMS float64 `json:"wall_ms"`
}

func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	concrete, _, ok := s.concretizeRequest(w, r)
	if !ok {
		return
	}
	hash := concrete.FullHash()
	out, coalesced, err := s.flights.Do(hash, func() (*InstallResponse, error) {
		res, err := s.cfg.Builder.Build(concrete)
		if err != nil {
			return nil, err
		}
		resp := &InstallResponse{
			Package:  concrete.Name,
			FullHash: hash,
			Packages: concrete.Size(),
			WallMS:   float64(res.WallTime) / float64(time.Millisecond),
		}
		for _, rep := range res.Reports {
			switch {
			case rep.FromCache:
				resp.CacheHits++
			case rep.Reused:
				resp.Reused++
			case rep.External:
			default:
				resp.SourceBuilt++
			}
		}
		if rec, ok := s.cfg.Builder.Store.Lookup(concrete); ok {
			resp.Prefix = rec.Prefix
		}
		if resp.SourceBuilt > 0 {
			s.stats.sourceBuilds.Add(1)
		}
		return resp, nil
	})
	if coalesced {
		s.stats.install.coalesced.Add(1)
	}
	if err != nil {
		http.Error(w, "install: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// A "hit" install moved no compiler: it coalesced onto a live
	// build, or everything was already cached or installed.
	if coalesced || out.SourceBuilt == 0 {
		s.stats.install.hits.Add(1)
	}
	resp := *out
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// maxJSONBody caps a JSON request body; a larger one is answered 413.
const maxJSONBody = 1 << 20

// decode reads a JSON request body into v: at most maxJSONBody bytes,
// no fields v does not declare, and exactly one JSON value. On failure it
// answers 400 (413 when the body is too large) and reports false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("more than one JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request body: "+err.Error(), status)
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
