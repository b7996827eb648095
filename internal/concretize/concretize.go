// Package concretize implements the paper's central algorithm (SC'15 §3.4,
// Fig. 6): translating an abstract, partially constrained spec into a fully
// concrete build specification.
//
// Since the v2 refactor the package is a layered pipeline behind the
// Concretize/ConcretizeCached seam:
//
//	engine (engine.go) — the fixed-point cycle of Fig. 6, full passes over
//	                     the DAG until one changes nothing: it picks
//	                     versions, variants and compilers greedily, with
//	                     reuse pins from the attached ReuseSource;
//	reify  (reify.go)  — after a greedy conflict only: the ranked provider
//	                     domain of every virtual (solve.Problem) and the
//	                     trail lines that explain the failure;
//	solve  (solve/)    — backtracking over virtual→provider assignments in
//	                     criteria order (satisfy > reuse installed/cached
//	                     hashes > preferred providers), each leaf one
//	                     engine run;
//	decode (decode.go) — validate the chosen model into the exact-edge
//	                     concrete spec.Spec the rest of the system consumes.
//
// Only provider assignments are searched; versions, variants and compilers
// stay greedy (ROADMAP item 9). The default mode evaluates only the greedy
// leaf, which is the paper's algorithm: it never revisits a policy choice,
// and raises a conflict error the user must resolve by being more explicit
// (§3.4, §4.5). The Backtracking field enables the provider search. On
// UNSAT, unsat.go shrinks the user's input constraints to a minimal core
// and renders a "why not" chain (see UnsatError).
package concretize

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/concretize/solve"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
)

// Concretizer converts abstract specs to concrete ones against a package
// repository path, a configuration, and a compiler registry.
type Concretizer struct {
	Path     *repo.Path
	Config   *config.Config
	Registry *compiler.Registry

	// Backtracking enables the provider search the paper defers to future
	// work (§4.5): when the greedy pass hits a conflict, alternative
	// virtual-provider assignments are explored depth-first.
	Backtracking bool

	// Cache, when non-nil, memoizes Concretize results keyed by the
	// abstract spec plus repository/configuration/compiler fingerprints
	// (see cache.go). Repeated concretization of an identical abstract
	// spec then costs one key lookup instead of a full solve, and answers
	// the entry's shared, frozen DAG.
	Cache *Cache

	// Reuse, when non-nil, supplies already-built concrete specs (the
	// store index, a buildcache, a lockfile, or any combination via
	// MultiReuse). Their configurations are preferred over fresh choices
	// whenever compatible, so re-concretization converges on installed
	// full hashes instead of newest versions.
	Reuse ReuseSource

	// Parallelism bounds ConcretizeAll's worker pool (<= 0 selects
	// runtime.GOMAXPROCS(0)).
	Parallelism int

	// Stats accumulates counters across Concretize calls, for the
	// experiment harness.
	Stats Stats

	// reuseMu guards snap, the memoized reuse snapshot (see reuse.go).
	reuseMu sync.Mutex
	snap    *reuseSnapshot
}

// Stats counts concretizer work. Counters are atomic so one Concretizer
// may serve concurrent goroutines (parallel installs share an instance).
type Stats struct {
	iterations   atomic.Int64
	backtracks   atomic.Int64
	virtualsSeen atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	solvedNodes  atomic.Int64
	reusedNodes  atomic.Int64
}

// Iterations reports fixed-point rounds across all runs.
func (s *Stats) Iterations() int { return int(s.iterations.Load()) }

// Backtracks reports alternative provider assignments tried.
func (s *Stats) Backtracks() int { return int(s.backtracks.Load()) }

// VirtualsSeen reports virtual nodes resolved.
func (s *Stats) VirtualsSeen() int { return int(s.virtualsSeen.Load()) }

// CacheHits reports Concretize calls answered from the memo cache.
func (s *Stats) CacheHits() int { return int(s.cacheHits.Load()) }

// CacheMisses reports Concretize calls that required a full solve while a
// cache was attached.
func (s *Stats) CacheMisses() int { return int(s.cacheMisses.Load()) }

// SolvedNodes reports concrete nodes produced by successful solves — the
// numerator of the benchmark harness's solved-nodes/sec metric.
func (s *Stats) SolvedNodes() int { return int(s.solvedNodes.Load()) }

// ReusedNodes reports solved nodes whose full hash matched a reuse
// candidate (installed or cached), across all runs with a ReuseSource.
func (s *Stats) ReusedNodes() int { return int(s.reusedNodes.Load()) }

// New returns a Concretizer with defaults.
func New(path *repo.Path, cfg *config.Config, reg *compiler.Registry) *Concretizer {
	return &Concretizer{Path: path, Config: cfg, Registry: reg}
}

// Error wraps a concretization failure with the offending spec.
type Error struct {
	Spec string
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("concretize %q: %v", e.Spec, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// UnknownPackageError reports a name that is neither a package nor a
// virtual interface, with close-match suggestions.
type UnknownPackageError struct {
	Name        string
	Suggestions []string
}

func (e *UnknownPackageError) Error() string {
	msg := fmt.Sprintf("unknown package %q (not a package or virtual interface)", e.Name)
	if len(e.Suggestions) > 0 {
		msg += fmt.Sprintf("; did you mean %s?", strings.Join(e.Suggestions, ", "))
	}
	return msg
}

// NoProviderError reports a virtual constraint no provider can satisfy.
type NoProviderError struct {
	Virtual string
	Detail  string
}

func (e *NoProviderError) Error() string {
	return fmt.Sprintf("no provider satisfies virtual dependency %q%s", e.Virtual, e.Detail)
}

// NoVersionError reports version constraints admitting no known version.
type NoVersionError struct {
	Package    string
	Constraint string
	Known      []string
}

func (e *NoVersionError) Error() string {
	return fmt.Sprintf("package %s has no version satisfying @%s (known: %s)",
		e.Package, e.Constraint, strings.Join(e.Known, ", "))
}

// NoCompilerError reports a compiler constraint no registered toolchain
// meets.
type NoCompilerError struct {
	Package    string
	Constraint string
	Arch       string
}

func (e *NoCompilerError) Error() string {
	return fmt.Sprintf("no registered compiler satisfies %%%s for %s on %s",
		e.Constraint, e.Package, e.Arch)
}

// MissingFeatureError reports that no admissible compiler supports a
// capability the package requires (§4.5's feature-aware selection).
type MissingFeatureError struct {
	Package  string
	Feature  string
	Compiler string
	Arch     string
}

func (e *MissingFeatureError) Error() string {
	return fmt.Sprintf("package %s requires compiler feature %q, which no admissible %s toolchain on %s provides",
		e.Package, e.Feature, e.Compiler, e.Arch)
}

// CycleError reports a circular dependency. Spack disallows cycles
// (§3.2.1 footnote: "Spack currently disallows circular dependencies").
type CycleError struct {
	Cycle []string // package names along the cycle, first == last
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("circular dependency: %s", strings.Join(e.Cycle, " -> "))
}

// UnknownVariantError reports a variant set on a package that does not
// declare it.
type UnknownVariantError struct {
	Package string
	Variant string
}

func (e *UnknownVariantError) Error() string {
	return fmt.Sprintf("package %s has no variant %q", e.Package, e.Variant)
}

// Concretize returns a new, fully concrete spec DAG satisfying the abstract
// input, or an error describing the inconsistency or missing information.
// The input is not modified.
//
// With a Cache attached, a repeated concretization of an identical abstract
// spec under unchanged repositories, configuration, compilers, and reuse
// candidates is a cache hit: one key lookup instead of a full solve, and
// the result is shared and frozen (see ConcretizeCached). Failed concretizations are never cached — the error path re-runs
// so callers always see the current diagnosis.
func (c *Concretizer) Concretize(abstract *spec.Spec) (*spec.Spec, error) {
	out, _, err := c.ConcretizeCached(abstract)
	return out, err
}

// ConcretizeCached is Concretize, additionally reporting whether the
// result was answered from the memo cache — the per-request hit signal
// the buildcache service's /v1/concretize counters expose.
//
// A hit is the cached entry's frozen DAG, shared with every other hit
// and hashed (see Cache.Get): a mutator on it panics, and a caller that
// needs a changed DAG derives one with Clone or SpliceDep.
//
// Concurrent misses on one key, from any concretizer sharing the Cache,
// run one solve: the first caller solves and stores the result, and the
// others wait and share the stored entry's root, reported as hits, or
// share its error. Stats counts that solve as the one miss.
func (c *Concretizer) ConcretizeCached(abstract *spec.Spec) (*spec.Spec, bool, error) {
	snap, err := c.reuseSnapshot()
	if err != nil {
		return nil, false, &Error{Spec: abstract.String(), Err: err}
	}
	if c.Cache == nil {
		out, err := c.concretizeUncached(abstract, snap)
		return out, false, err
	}
	key := c.cacheKey(abstract, snap)
	if hit, ok := c.Cache.Get(key); ok {
		c.Stats.cacheHits.Add(1)
		return hit, true, nil
	}
	// Concurrent misses on one key share one solve. The flight lives on
	// the Cache, so every concretizer sharing it coalesces; it re-checks
	// the cache first, since a flight may have landed after Get missed.
	var out *spec.Spec
	tmpl, _, err := c.Cache.flight.Do(key.flightKey(), func() (*spec.Template, error) {
		if tmpl, ok := c.Cache.template(key); ok {
			return tmpl, nil
		}
		c.Stats.cacheMisses.Add(1)
		var err error
		if out, err = c.concretizeUncached(abstract, snap); err != nil {
			return nil, err
		}
		return c.Cache.Put(key, out), nil
	})
	if err != nil {
		return nil, false, err
	}
	if out == nil {
		// Another call solved it: its stored result, as a hit.
		c.Stats.cacheHits.Add(1)
		return tmpl.Root(), true, nil
	}
	return out, false, nil
}

// concretizeUncached is the full pipeline behind Concretize: reify the
// problem, search it, account for reuse, and on UNSAT attach the minimal
// core explanation.
func (c *Concretizer) concretizeUncached(abstract *spec.Spec, snap *reuseSnapshot) (*spec.Spec, error) {
	trail := solve.NewTrail()
	out, err := c.solveAbstract(abstract, snap, trail)
	if err != nil {
		return nil, c.explainUnsat(abstract, err, trail)
	}
	if snap != nil {
		for _, n := range out.Nodes() {
			if _, ok := snap.hashes[n.FullHash()]; ok {
				c.Stats.reusedNodes.Add(1)
			}
		}
	}
	return out, nil
}

// solveAbstract runs the greedy leaf and, only if it conflicts, reify →
// solve, without unsat-core post-processing; the unsat-core minimizer
// itself probes through this entry point to test whether a weakened input
// is satisfiable. A satisfiable greedy input builds no domain and writes
// nothing to the trail.
func (c *Concretizer) solveAbstract(abstract *spec.Spec, snap *reuseSnapshot, trail *solve.Trail) (*spec.Spec, error) {
	if err := c.checkNames(abstract); err != nil {
		return nil, err
	}
	var pins map[string]*spec.Spec
	if snap != nil {
		pins = snap.pins
	}
	out, greedyErr := c.evalOnce(abstract, nil, pins)
	if greedyErr == nil {
		return out, nil
	}
	s := &solve.Solver{
		Problem: c.reify(abstract, snap, trail),
		// Every leaf past the greedy one is a backtrack.
		Eval: func(forced map[string]string) (*spec.Spec, error) {
			c.Stats.backtracks.Add(1)
			return c.evalOnce(abstract, forced, pins)
		},
		Trail:  trail,
		Branch: c.Backtracking,
	}
	return s.Search(greedyErr)
}

// evalOnce runs the propagation engine, retracting reuse pins that cause
// conflicts: satisfiability ranks above reuse in the criteria, so a pin
// implicated in a failure is dropped and the run retried; a failure that
// cannot be attributed to a single pinned package drops every remaining
// pin at once. The loop strictly shrinks the pin set, so it terminates.
func (c *Concretizer) evalOnce(abstract *spec.Spec, forced map[string]string, pins map[string]*spec.Spec) (*spec.Spec, error) {
	active := pins
	for {
		r := &resolver{c: c, forced: forced, pins: active, pinApplied: make(map[string]bool)}
		out, err := r.run(abstract)
		if err == nil {
			return out, nil
		}
		if len(active) == 0 {
			return nil, err
		}
		if name, ok := offendingPackage(err); ok {
			if _, pinned := active[name]; pinned {
				next := make(map[string]*spec.Spec, len(active)-1)
				for k, v := range active {
					if k != name {
						next[k] = v
					}
				}
				active = next
				continue
			}
		}
		// Not attributable to one pin: retract them all and retry once.
		active = nil
	}
}

// offendingPackage extracts the package a typed concretization error blames,
// for reuse-pin retraction.
func offendingPackage(err error) (string, bool) {
	var conflict *spec.ConflictError
	if errors.As(err, &conflict) && conflict.Package != "" {
		return conflict.Package, true
	}
	var noVer *NoVersionError
	if errors.As(err, &noVer) {
		return noVer.Package, true
	}
	var noComp *NoCompilerError
	if errors.As(err, &noComp) {
		return noComp.Package, true
	}
	var noFeat *MissingFeatureError
	if errors.As(err, &noFeat) {
		return noFeat.Package, true
	}
	var badVar *UnknownVariantError
	if errors.As(err, &badVar) {
		return badVar.Package, true
	}
	return "", false
}

// cacheKey derives the memo-cache key for an abstract spec: its canonical
// DAG serialization plus the fingerprints of every other concretization
// input, the algorithm mode (greedy and backtracking results must never be
// conflated — the two can legitimately choose different providers), and
// the reuse fingerprint (a reuse answer must never outlive an install/uninstall that
// changes the candidate set).
func (c *Concretizer) cacheKey(abstract *spec.Spec, snap *reuseSnapshot) Key {
	mode := "greedy"
	if c.Backtracking {
		mode = "backtracking"
	}
	key := Key{
		Spec:      abstract.Canonical(),
		Repo:      c.Path.Fingerprint(),
		Config:    c.Config.Fingerprint(),
		Compilers: c.Registry.Fingerprint(),
		Mode:      mode,
	}
	if snap != nil {
		key.Reuse = snap.fingerprint
	}
	return key
}

// suggest returns up to three repository names within small edit distance
// of the unknown name — the "did you mean" hint real package managers give.
func (c *Concretizer) suggest(name string) []string {
	type scored struct {
		name string
		d    int
	}
	var cands []scored
	maxDist := len(name)/3 + 1
	for _, known := range c.Path.Names() {
		if d := editDistance(name, known); d <= maxDist {
			cands = append(cands, scored{known, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].name < cands[j].name
	})
	var out []string
	for i := 0; i < len(cands) && i < 3; i++ {
		out = append(out, cands[i].name)
	}
	return out
}

// editDistance is the Levenshtein distance between two strings.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
