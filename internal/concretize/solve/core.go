// Minimal unsat cores. When a concretization is UNSAT the full implication
// trail explains the failure mechanically, but users want the smallest set
// of *their own* constraints that caused it. A Fact names one removable
// input constraint; MinimizeCore shrinks the removable set to a 1-minimal
// correction set — removing exactly these facts makes the input satisfiable,
// and no proper subset suffices.
package solve

// Fact is one removable input constraint, reified from the abstract spec.
type Fact struct {
	// ID is the fact's stable index within its problem.
	ID int
	// Node is the package (or virtual) name the constraint attaches to.
	Node string
	// Kind classifies the constraint ("version", "compiler", "variant",
	// "arch", "dep").
	Kind string
	// Detail is the human rendering, e.g. `hwloc2@1.7` or `^openmpi`.
	Detail string
}

// String returns the human rendering of the fact.
func (f Fact) String() string { return f.Detail }

// MinimizeCore shrinks candidates to a 1-minimal correction set: a subset
// whose removal makes the problem satisfiable, such that removing any
// proper subset of it does not. satWithout must report whether the problem
// is satisfiable with the given facts removed from the input; it is called
// O(len(candidates)) times. If removing every candidate still leaves the
// problem UNSAT (the conflict lives in package directives, not the input),
// MinimizeCore returns nil.
func MinimizeCore(candidates []Fact, satWithout func([]Fact) bool) []Fact {
	if len(candidates) == 0 {
		return nil
	}
	core := append([]Fact(nil), candidates...)
	if !satWithout(core) {
		return nil
	}
	// Destructive shrink: drop each fact from the removal set in turn; if
	// the remainder still repairs the problem, the fact was not needed.
	for i := 0; i < len(core); {
		trial := make([]Fact, 0, len(core)-1)
		trial = append(trial, core[:i]...)
		trial = append(trial, core[i+1:]...)
		if len(trial) > 0 && satWithout(trial) {
			core = trial
		} else if len(trial) == 0 {
			// The last fact alone: keep it only if it is truly needed,
			// i.e. the empty removal set does not repair the problem.
			if satWithout(trial) {
				return nil
			}
			i++
		} else {
			i++
		}
	}
	return core
}
