package service

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/store"
	"repro/internal/syntax"
)

// SpliceRequest is the body of POST /v1/splice. Root and Replacement
// are query expressions that must each match exactly one installed
// configuration on the daemon; Target names the dependency to replace
// and defaults to the replacement's package name (set it explicitly
// when swapping providers, e.g. mpich → openmpi).
type SpliceRequest struct {
	Root        string `json:"root"`
	Target      string `json:"target,omitempty"`
	Replacement string `json:"replacement"`
	DryRun      bool   `json:"dry_run,omitempty"`
}

// SpliceNode is one cone entry of a SpliceResponse.
type SpliceNode struct {
	Name    string `json:"name"`
	OldHash string `json:"old_hash"`
	NewHash string `json:"new_hash"`
	// Source reports where the prefix payload comes from: "archive" when
	// the cache holds the old configuration, else "prefix".
	Source string `json:"source"`
}

// SpliceResponse reports one server-side splice (or its dry-run plan).
type SpliceResponse struct {
	Package     string       `json:"package"`
	Target      string       `json:"target"`
	Replacement string       `json:"replacement"`
	OldHash     string       `json:"old_hash"`
	NewHash     string       `json:"new_hash"`
	DryRun      bool         `json:"dry_run,omitempty"`
	Cone        []SpliceNode `json:"cone"`
	// Coalesced reports that this request arrived while another client
	// was already splicing the same rewiring and shared its transaction.
	Coalesced   bool     `json:"coalesced,omitempty"`
	Installed   int      `json:"installed"`
	Reused      int      `json:"reused"`
	FromArchive int      `json:"from_archive"`
	FromPrefix  int      `json:"from_prefix"`
	ModuleFiles int      `json:"module_files"`
	Envs        int      `json:"envs"`
	WallMS      float64  `json:"wall_ms"`
	Warnings    []string `json:"warnings,omitempty"`
}

// resolveInstalled resolves a query expression to exactly one installed
// record on the daemon's store.
func resolveInstalled(st *store.Store, what, expr string) (*store.Record, error) {
	q, err := syntax.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", what, err)
	}
	recs := st.Find(q)
	if len(recs) != 1 {
		return nil, fmt.Errorf("%s %q matches %d installed specs, need exactly 1", what, expr, len(recs))
	}
	return recs[0], nil
}

func (s *Server) handleSplice(w http.ResponseWriter, r *http.Request) {
	var req SpliceRequest
	if !decode(w, r, &req) {
		return
	}
	sp := s.cfg.Splicer
	if sp == nil || sp.Store == nil {
		http.Error(w, "daemon has no splicer", http.StatusServiceUnavailable)
		return
	}
	root, err := resolveInstalled(sp.Store, "root", req.Root)
	if err != nil {
		http.Error(w, "splice: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	repl, err := resolveInstalled(sp.Store, "replacement", req.Replacement)
	if err != nil {
		http.Error(w, "splice: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	target := req.Target
	if target == "" {
		target = repl.Spec.Name
	}

	run := func() (*SpliceResponse, error) {
		res, err := sp.Run(root.Spec, target, repl.Spec, req.DryRun)
		if err != nil {
			return nil, err
		}
		resp := &SpliceResponse{
			Package:     root.Spec.Name,
			Target:      res.Plan.Target,
			Replacement: res.Plan.Replacement,
			OldHash:     res.Plan.OldRootHash,
			NewHash:     res.Plan.NewRootHash,
			DryRun:      req.DryRun,
			Installed:   res.Installed,
			Reused:      res.Reused,
			FromArchive: res.FromArchive,
			FromPrefix:  res.FromPrefix,
			ModuleFiles: res.ModuleFiles,
			Envs:        res.Envs,
			WallMS:      float64(res.Time) / float64(time.Millisecond),
			Warnings:    res.Warnings,
		}
		for _, ch := range res.Plan.Cone {
			src := "prefix"
			if ch.FromArchive {
				src = "archive"
			}
			resp.Cone = append(resp.Cone, SpliceNode{
				Name: ch.Name, OldHash: ch.OldHash, NewHash: ch.NewHash, Source: src,
			})
		}
		return resp, nil
	}

	var out *SpliceResponse
	coalesced := false
	if req.DryRun {
		// Planning mutates nothing; no flight to share.
		out, err = run()
	} else {
		// A herd of clients requesting the same rewiring runs one
		// transaction; everyone else blocks on and shares its outcome.
		key := root.Spec.FullHash() + "\x00" + target + "\x00" + repl.Spec.FullHash()
		out, coalesced, err = s.splices.Do(key, run)
	}
	if err != nil {
		http.Error(w, "splice: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if coalesced {
		s.stats.endpoint(r.URL.Path).coalesced.Add(1)
	}
	resp := *out
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// KeyInfo is one entry of GET /v1/keys: a public signing key the daemon
// recognizes. Private halves never leave the daemon.
type KeyInfo struct {
	Name    string `json:"name"`
	Public  string `json:"public"` // hex
	Trusted bool   `json:"trusted"`
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Keyring == nil {
		http.Error(w, "daemon has no keyring", http.StatusServiceUnavailable)
		return
	}
	keys := s.cfg.Keyring.List()
	out := make([]KeyInfo, 0, len(keys))
	for _, k := range keys {
		out = append(out, KeyInfo{Name: k.Name, Public: hex.EncodeToString(k.Public), Trusted: k.Trusted})
	}
	writeJSON(w, http.StatusOK, out)
}

// startMaintenance launches the scheduled self-maintenance loop when an
// interval is configured. Each cycle garbage-collects the daemon's
// store and prunes the cache area back under its bounds — the unattended
// counterpart of an operator running `gc` and `buildcache prune` by
// hand. Cycles are spaced interval ± up to 10% jitter so a fleet of
// daemons sharing a mirror does not sweep in lockstep.
func (s *Server) startMaintenance() {
	iv := s.cfg.MaintenanceInterval
	if iv <= 0 || s.maintStop != nil {
		return
	}
	s.maintStop = make(chan struct{})
	s.maintDone = make(chan struct{})
	go func() {
		defer close(s.maintDone)
		for {
			d := iv + rand.N(iv/5+1) - iv/10
			select {
			case <-s.maintStop:
				return
			case <-time.After(d):
			}
			s.runMaintenance()
		}
	}()
}

// stopMaintenance stops the loop and waits for an in-flight cycle to
// finish, so shutdown never races a sweep.
func (s *Server) stopMaintenance() {
	if s.maintStop == nil {
		return
	}
	s.stopMaint.Do(func() { close(s.maintStop) })
	<-s.maintDone
}

// runMaintenance performs one maintenance cycle under the same locks the
// request handlers use.
func (s *Server) runMaintenance() {
	if g := s.cfg.GC; g != nil {
		s.gcMu.Lock()
		res, err := g.Run(false)
		s.gcMu.Unlock()
		if err != nil {
			s.logf("maintenance: gc: %v\n", err)
		} else {
			s.logf("maintenance: gc reclaimed %dB across %d records\n", res.Reclaimed, res.Records)
		}
	}
	s.pruneToBudget()
}
