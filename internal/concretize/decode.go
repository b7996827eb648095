package concretize

import (
	"fmt"

	"repro/internal/spec"
)

// decode is the pipeline's final layer: it validates the fixed point the
// engine reached into the exact-edge concrete spec the rest of the system
// consumes — no cycles, no virtuals left, nothing abstract — and accounts
// the solved nodes.
func (r *resolver) decode(abstract, root *spec.Spec) (*spec.Spec, error) {
	// Circular dependencies are rejected (§3.2.1 footnote).
	if cyc := findCycle(root); cyc != nil {
		return nil, &Error{Spec: abstract.String(), Err: &CycleError{Cycle: cyc}}
	}

	// Final criteria from §3.4: no virtuals, nothing abstract.
	var finalErr error
	nodes := 0
	root.Traverse(func(n *spec.Spec) bool {
		if r.c.Path.IsVirtual(n.Name) {
			finalErr = &NoProviderError{Virtual: n.Name}
			return false
		}
		if !n.NodeConcrete() {
			finalErr = fmt.Errorf("node %s is still abstract after concretization", n.Name)
			return false
		}
		nodes++
		return true
	})
	if finalErr != nil {
		return nil, &Error{Spec: abstract.String(), Err: finalErr}
	}
	r.c.Stats.solvedNodes.Add(int64(nodes))
	return root, nil
}

// findCycle returns the package names along a dependency cycle reachable
// from root (first element repeated at the end), or nil.
func findCycle(root *spec.Spec) []string {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var stack []string
	var walk func(n *spec.Spec) []string
	walk = func(n *spec.Spec) []string {
		switch state[n.Name] {
		case done:
			return nil
		case visiting:
			// Found a back edge: slice the stack from the repeat.
			for i, name := range stack {
				if name == n.Name {
					return append(append([]string{}, stack[i:]...), n.Name)
				}
			}
			return []string{n.Name, n.Name}
		}
		state[n.Name] = visiting
		stack = append(stack, n.Name)
		for _, d := range n.DirectDeps() {
			if cyc := walk(d); cyc != nil {
				return cyc
			}
		}
		stack = stack[:len(stack)-1]
		state[n.Name] = done
		return nil
	}
	return walk(root)
}
