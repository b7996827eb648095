package concretize

import (
	"fmt"
	"strings"

	"repro/internal/concretize/solve"
	"repro/internal/spec"
)

// maxCoreFacts bounds unsat-core minimization: shrinking is quadratic in
// re-solves, so pathological inputs fall back to the plain error.
const maxCoreFacts = 64

// UnsatError decorates a concretization failure with its minimal unsat
// core: the smallest set of the user's own input constraints whose removal
// makes the spec satisfiable. Error() is exactly the underlying failure
// (callers matching messages or errors.As chains see no difference);
// WhyNot() renders the human-readable chain.
type UnsatError struct {
	// Err is the underlying concretization failure.
	Err error
	// Core is the 1-minimal correction set over the input's constraints.
	Core []solve.Fact
	// Trail holds the solver's implication trail lines for the failed run.
	Trail []string
}

func (e *UnsatError) Error() string { return e.Err.Error() }

func (e *UnsatError) Unwrap() error { return e.Err }

// CoreStrings returns the core facts' renderings, for wire encodings.
func (e *UnsatError) CoreStrings() []string {
	out := make([]string, len(e.Core))
	for i, f := range e.Core {
		out[i] = f.Detail
	}
	return out
}

// WhyNot renders the failure as a "why not" chain: the root cause, the
// minimal core, and the tail of the implication trail that led there.
func (e *UnsatError) WhyNot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "why not: %v\n", e.Err)
	b.WriteString("minimal unsat core — removing these input constraints makes the spec satisfiable:\n")
	for _, f := range e.Core {
		fmt.Fprintf(&b, "  - %s (%s constraint on %s)\n", f.Detail, f.Kind, f.Node)
	}
	if len(e.Trail) > 0 {
		const tail = 8
		lines := e.Trail
		if len(lines) > tail {
			lines = lines[len(lines)-tail:]
		}
		b.WriteString("implication trail:\n")
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// explainUnsat post-processes a failed solve: the abstract spec's reified
// constraints become candidate facts, and a probe concretizer (same inputs,
// no cache, no reuse — reuse pins retract themselves and so never cause
// UNSAT) answers satWithout queries for MinimizeCore. When a non-empty
// minimal core exists the failure is wrapped in an UnsatError; otherwise —
// nothing removable, or the conflict lives in package directives — the
// original error passes through untouched.
func (c *Concretizer) explainUnsat(abstract *spec.Spec, cause error, trail *solve.Trail) error {
	cons := abstract.Constraints()
	if len(cons) == 0 || len(cons) > maxCoreFacts {
		return cause
	}
	facts := make([]solve.Fact, len(cons))
	for i, nc := range cons {
		facts[i] = solve.Fact{ID: i, Node: nc.Node, Kind: string(nc.Kind), Detail: nc.Detail}
	}
	probe := New(c.Path, c.Config, c.Registry)
	probe.Backtracking = c.Backtracking
	satWithout := func(removed []solve.Fact) bool {
		trial := abstract
		for _, f := range removed {
			trial = trial.DropConstraint(cons[f.ID])
		}
		_, err := probe.solveAbstract(trial, nil, nil)
		return err == nil
	}
	core := solve.MinimizeCore(facts, satWithout)
	if len(core) == 0 {
		return cause
	}
	return &UnsatError{Err: cause, Core: core, Trail: trail.Lines()}
}
