// Package solve is the concretizer's solver core: the search layer of the
// v2 pipeline (reify → solve → decode).
//
// What is searched is one thing: the assignment of virtual interfaces to
// provider packages. Versions, variants and compilers are greedy — the
// propagation engine picks them on its way to a fixed point, and the Solver
// never branches on them (a complete search over them is ROADMAP item 9). The
// concretizer evaluates the greedy leaf, nothing forced, before it builds
// anything. Only when that leaf conflicts does it reify a Problem — each
// virtual's provider candidates, ranked by the criteria (reuse of installed
// or cached hashes, then configured policy rank, then name) and marked
// reachable or not from the root — and hand the conflict to the Solver,
// together with Eval: the engine run under a forced provider assignment.
//
// With branching enabled the Solver explores provider assignments
// depth-first in criteria order, so the first model found is the best one
// under the criteria. Unit propagation over the provider domains prunes the
// search before any Eval call: virtuals unreachable from the root are never
// branched on, single-candidate virtuals are recorded as units, and empty
// domains are reported on the trail.
//
// The implication Trail records every reified fact, propagation step and
// choice of a failed solve; the concretizer walks it, together with
// MinimizeCore (core.go), into a minimal "why not" explanation.
package solve

import (
	"fmt"

	"repro/internal/spec"
)

// Provider is one candidate implementation of a virtual interface, carrying
// the attributes the optimization criteria rank on.
type Provider struct {
	// Name is the provider package name.
	Name string
	// Rank is the configured policy rank (lower is better; the default for
	// unranked providers is a large constant so listed providers win).
	Rank int
	// Reused marks a provider that appears in the reuse candidate set
	// (installed in the store or present in the buildcache) — under the
	// criteria, reuse outranks configured preference.
	Reused bool
}

// CompareProviders orders two candidates by the solver's lexicographic
// criteria: reused providers first (prefer installed/cached hashes), then
// configured policy rank, then name for determinism. It returns a negative
// number when a should precede b.
func CompareProviders(a, b Provider) int {
	if a.Reused != b.Reused {
		if a.Reused {
			return -1
		}
		return 1
	}
	if a.Rank != b.Rank {
		return a.Rank - b.Rank
	}
	switch {
	case a.Name < b.Name:
		return -1
	case a.Name > b.Name:
		return 1
	}
	return 0
}

// RankProviders sorts candidates in place into criteria order.
func RankProviders(ps []Provider) {
	// Insertion sort keeps the sort stable without an extra comparator
	// allocation; provider lists are tiny.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && CompareProviders(ps[j], ps[j-1]) < 0; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// VirtualFacts is the reified domain of one virtual interface: its
// candidate providers in criteria order.
type VirtualFacts struct {
	// Name is the virtual interface name.
	Name string
	// Providers lists the candidates, already ranked by CompareProviders.
	Providers []Provider
	// Reachable marks virtuals reachable from the problem root through any
	// dependency directive (conditional or not). Unreachable virtuals are
	// pruned from the search: forcing them cannot change the model.
	Reachable bool
}

// Problem is a reified concretization instance: the provider domains the
// solver branches on.
type Problem struct {
	// Root is the root package name.
	Root string
	// Virtuals lists every virtual interface visible to the solve, in
	// deterministic (name) order.
	Virtuals []VirtualFacts
}

// Trail is the implication trail: an append-only record of reified facts,
// unit propagations, and search decisions, walked for "why not" rendering
// when the problem is UNSAT.
type Trail struct {
	lines []string
}

// NewTrail returns an empty trail.
func NewTrail() *Trail { return &Trail{} }

// Addf appends one formatted entry. A nil trail ignores the write so
// callers need not guard hot paths.
func (t *Trail) Addf(format string, args ...any) {
	if t == nil {
		return
	}
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

// Lines returns the recorded entries in order.
func (t *Trail) Lines() []string {
	if t == nil {
		return nil
	}
	return t.lines
}

// Solver searches the space of virtual-provider assignments over the
// propagation oracle Eval.
type Solver struct {
	// Problem is the reified instance.
	Problem *Problem
	// Eval is the propagation oracle the concretizer supplies: it runs the
	// constraint-propagation engine to a fixed point under a forced
	// assignment of virtual names to provider package names, returning the
	// decoded concrete model or the conflict that stopped it.
	Eval func(forced map[string]string) (*spec.Spec, error)
	// Trail, when non-nil, records propagation and search steps.
	Trail *Trail
	// Branch enables the backtracking search over provider assignments;
	// when false the greedy conflict is reported as is, which is the
	// greedy algorithm of the paper's §3.4.
	Branch bool
}

// Search continues a solve whose greedy leaf — the all-unforced assignment,
// every domain decided by propagation's criteria-ranked first choice —
// conflicted with greedyErr. The caller evaluates that leaf before it
// reifies anything, so a satisfiable greedy instance never reaches the
// solver. When branching is enabled, alternative provider assignments are
// explored depth-first in criteria order; the first model found is
// returned. On exhaustion the greedy conflict is reported, since it names
// the constraint the user most directly controls.
func (s *Solver) Search(greedyErr error) (*spec.Spec, error) {
	branch := s.propagate()
	s.Trail.Addf("greedy pass conflicts: %v", greedyErr)
	if !s.Branch || len(branch) == 0 {
		return nil, greedyErr
	}

	// Depth-first over the branchable virtuals: for each, first leave the
	// choice to propagation, then force each candidate in criteria order.
	forced := make(map[string]string, len(branch))
	var dfs func(i int) (*spec.Spec, error)
	dfs = func(i int) (*spec.Spec, error) {
		if i == len(branch) {
			return s.Eval(forced)
		}
		v := branch[i]
		if out, err := dfs(i + 1); err == nil {
			return out, nil
		}
		var lastErr error
		for _, p := range v.Providers {
			forced[v.Name] = p.Name
			s.Trail.Addf("decide: %s -> %s", v.Name, p.Name)
			out, err := dfs(i + 1)
			delete(forced, v.Name)
			if err == nil {
				return out, nil
			}
			s.Trail.Addf("retract: %s -> %s (%v)", v.Name, p.Name, err)
			lastErr = err
		}
		if lastErr == nil {
			lastErr = greedyErr
		}
		return nil, lastErr
	}
	if out, err := dfs(0); err == nil {
		return out, nil
	}
	// Report the original greedy failure, as the paper's algorithm does:
	// it describes the first, best-ranked path through the user's input.
	return nil, greedyErr
}

// propagate performs unit propagation over the provider domains before any
// search: unreachable virtuals, empty domains and unit (single-candidate)
// virtuals are recorded on the trail, and the branchable virtual set is
// pruned to reachable interfaces with at least one candidate. Units stay in
// the branch list — re-forcing the only candidate is how a unit's conflict
// gets attributed — but contribute no extra search width.
func (s *Solver) propagate() []VirtualFacts {
	var branch []VirtualFacts
	for _, v := range s.Problem.Virtuals {
		if !v.Reachable {
			s.Trail.Addf("prune: virtual %s unreachable from %s", v.Name, s.Problem.Root)
			continue
		}
		if len(v.Providers) == 0 {
			s.Trail.Addf("unit: virtual %s has no providers", v.Name)
			continue
		}
		if len(v.Providers) == 1 {
			s.Trail.Addf("unit: virtual %s -> %s (only candidate)", v.Name, v.Providers[0].Name)
		}
		branch = append(branch, v)
	}
	return branch
}
