package spec

import "fmt"

// SpliceDep returns a copy of root's DAG with the dependency node named
// target replaced by repl's DAG — the spec-level half of the splice
// operation: rewire an installed DAG onto a different dependency without
// rebuilding the dependents. Neither input is mutated.
//
// Every edge that pointed at target is retargeted to repl's root,
// carrying its edge type, so the replacement may have a different name
// (swapping one MPI provider for another). Nodes of repl's closure that
// collide by name with nodes remaining in root's DAG are unified when
// their full hashes agree (the DAG keeps one shared node) and rejected
// when they disagree — a splice must never smuggle in a second
// configuration of a package the DAG already links against.
//
// Every node on a path from the root to the replaced dependency — the
// splice cone — ends up with a new full hash; nodes outside the cone
// keep theirs, which is what lets the store share their prefixes.
func SpliceDep(root *Spec, target string, repl *Spec) (*Spec, error) {
	fail := func(format string, args ...any) (*Spec, error) {
		return nil, fmt.Errorf("spec: splice %s: %s", root.Name, fmt.Sprintf(format, args...))
	}
	if !root.Concrete() {
		return fail("root spec is not concrete")
	}
	if !repl.Concrete() {
		return fail("replacement %s is not concrete", repl.Name)
	}
	if root.Name == target {
		return fail("cannot replace the root itself")
	}

	nr := root.Clone()
	old := nr.Dep(target)
	if old == nil {
		return fail("does not depend on %s", target)
	}

	// Detach: drop every edge pointing at target. Nodes reachable only
	// through it (its exclusive subtree) fall out of the DAG with it.
	type cutEdge struct {
		parent *Spec
		etype  DepType
	}
	var cuts []cutEdge
	for _, n := range nr.Nodes() {
		if i, ok := n.depIndex(target); ok {
			cuts = append(cuts, cutEdge{parent: n, etype: n.depTypes[i]})
			n.RemoveDep(target)
		}
	}

	// Index what remains; repl's closure must be consistent with it.
	remaining := make(map[string]*Spec)
	for _, n := range nr.Nodes() {
		remaining[n.Name] = n
	}

	// Graft repl's closure bottom-up, unifying name collisions: an equal
	// full hash means the very same configuration, so the DAG shares the
	// existing node; a different hash is a conflict.
	grafted := make(map[string]*Spec)
	var graftedRoot *Spec
	for _, rn := range repl.Clone().TopoOrder() {
		if ex, ok := remaining[rn.Name]; ok {
			if ex.FullHash() != rn.FullHash() {
				return fail("replacement %s needs %s but the DAG already has an incompatible %s",
					repl.Name, rn.String(), ex.String())
			}
			grafted[rn.Name] = ex
		} else {
			for i, d := range rn.deps {
				if u := grafted[d.Name]; u != nil && u != d {
					rn.SetDep(u, rn.depTypes[i])
				}
			}
			grafted[rn.Name] = rn
		}
		if rn.Name == repl.Name {
			graftedRoot = grafted[rn.Name]
		}
	}

	// Reattach: every cut edge now points at the replacement root.
	for _, c := range cuts {
		c.parent.SetDep(graftedRoot, c.etype)
	}
	// The collision checks above hashed nodes mid-rewire; none of those
	// memos describes the result.
	for _, n := range nr.Nodes() {
		n.forgetHash()
	}
	return nr, nil
}

// SpliceCone returns the names of the nodes whose full hash changes when
// target is replaced under root: every node with a path to target,
// including the root itself, in bottom-up (dependencies-first) order.
// These are exactly the prefixes a splice must re-materialize.
func SpliceCone(root *Spec, target string) []string {
	affected := make(map[string]bool)
	var walk func(n *Spec) bool
	memo := make(map[string]bool)
	walk = func(n *Spec) bool {
		if n.Name == target {
			return true
		}
		if v, ok := memo[n.Name]; ok {
			return v
		}
		memo[n.Name] = false // break cycles defensively; DAGs have none
		hit := false
		for _, d := range n.deps {
			if walk(d) {
				hit = true
			}
		}
		memo[n.Name] = hit
		if hit {
			affected[n.Name] = true
		}
		return hit
	}
	walk(root)
	var out []string
	for _, n := range root.TopoOrder() {
		if affected[n.Name] {
			out = append(out, n.Name)
		}
	}
	return out
}
