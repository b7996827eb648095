package spec

import (
	"slices"
	"strings"
)

// AddDep attaches (or merges) a dependency node by name, preserving the
// single-node-per-name invariant. If a node of the same name exists, the
// constraints are intersected. The edge gets the default build+link type.
func (s *Spec) AddDep(d *Spec) error {
	return s.AddDepTyped(d, DepDefault)
}

// AddDepTyped is AddDep with an explicit edge type; merging an existing
// edge unions the type sets.
func (s *Spec) AddDepTyped(d *Spec, t DepType) error {
	i, ok := s.depIndex(d.Name)
	if !ok {
		s.SetDep(d, t)
		return nil
	}
	s.depTypes[i] |= t
	s.forgetHash()
	return s.deps[i].Constrain(d)
}

// SetDep attaches d as the direct dependency named d.Name with edge type
// t, replacing any edge of that name. Unlike AddDepTyped it merges
// nothing.
func (s *Spec) SetDep(d *Spec, t DepType) {
	if i, ok := s.depIndex(d.Name); ok {
		s.deps[i], s.depTypes[i] = d, t
	} else {
		s.deps = slices.Insert(s.deps, i, d)
		s.depTypes = slices.Insert(s.depTypes, i, t)
	}
	s.forgetHash()
}

// RemoveDep drops the edge to the direct dependency named name, if any.
func (s *Spec) RemoveDep(name string) {
	if i, ok := s.depIndex(name); ok {
		s.deps = slices.Delete(s.deps, i, i+1)
		s.depTypes = slices.Delete(s.depTypes, i, i+1)
		s.forgetHash()
	}
}

// SetDepType reclassifies the edge to a direct dependency; it does
// nothing if s has no edge of that name.
func (s *Spec) SetDepType(name string, t DepType) {
	if i, ok := s.depIndex(name); ok {
		s.depTypes[i] = t
		s.forgetHash()
	}
}

// DirectDeps returns the direct dependency nodes sorted by name. The
// slice is s's own edge storage, not a copy: do not modify it, and do not
// hold it across a change to s's edges.
func (s *Spec) DirectDeps() []*Spec { return s.deps[:len(s.deps):len(s.deps)] }

// DirectDep returns the direct dependency named name, or nil.
func (s *Spec) DirectDep(name string) *Spec {
	if i, ok := s.depIndex(name); ok {
		return s.deps[i]
	}
	return nil
}

// EdgeType returns the classification of the edge to a direct dependency
// (DepDefault when there is no such edge).
func (s *Spec) EdgeType(name string) DepType {
	if i, ok := s.depIndex(name); ok {
		return s.depTypes[i]
	}
	return DepDefault
}

// EachDep calls visit with every direct dependency and its edge type, in
// name order.
func (s *Spec) EachDep(visit func(d *Spec, t DepType)) {
	for i, d := range s.deps {
		visit(d, s.depTypes[i])
	}
}

// depIndex returns the position of the edge named name in s.deps, or the
// position where it would be inserted, and whether it exists.
func (s *Spec) depIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(s.deps, name, func(d *Spec, name string) int {
		return strings.Compare(d.Name, name)
	})
}

// inlineNodes is how many nodes a walk tracks in arrays on its own stack
// before it moves to the heap: more than the largest Fig. 8 or ARES DAG
// (48 nodes), so walking those allocates nothing.
const inlineNodes = 64

// nodeSet is the set of nodes one walk has reached, keyed by name (a name
// is one node per DAG), with each node's position in the order added.
// Lookups scan the inline array, comparing pointers before names, until
// the set outgrows it; from then on a map indexes every name.
type nodeSet struct {
	n      int
	inline [inlineNodes]*Spec
	byName map[string]int // every node's position, once inline is full
}

// find returns the position of the node named as n is, or -1.
func (m *nodeSet) find(n *Spec) int {
	if m.byName != nil {
		if i, ok := m.byName[n.Name]; ok {
			return i
		}
		return -1
	}
	for i, x := range m.inline[:m.n] {
		if x == n {
			return i
		}
	}
	for i, x := range m.inline[:m.n] {
		if x.Name == n.Name {
			return i
		}
	}
	return -1
}

// add appends n, whose name must not be in the set yet.
func (m *nodeSet) add(n *Spec) {
	if m.n < inlineNodes {
		m.inline[m.n] = n
	} else {
		if m.byName == nil {
			m.byName = make(map[string]int, 2*inlineNodes)
			for i, x := range m.inline {
				m.byName[x.Name] = i
			}
		}
		m.byName[n.Name] = m.n
	}
	m.n++
}

// frame is one node on a walk's stack and the index of its next edge.
type frame struct {
	n    *Spec
	next int
}

// walk visits the DAG depth first from s, dependencies in name order,
// each name once: pre (when set) as a node is reached, and post (when
// set) once all of the node's dependencies have been. pre returns false
// to stop the walk. Its state lives on its own stack, so on a DAG of up
// to inlineNodes nodes it allocates nothing.
func (s *Spec) walk(pre func(*Spec) bool, post func(*Spec)) {
	var seen nodeSet
	var buf [inlineNodes]frame
	seen.add(s)
	if pre != nil && !pre(s) {
		return
	}
	for stack := append(buf[:0], frame{n: s}); len(stack) > 0; {
		top := &stack[len(stack)-1]
		if top.next >= len(top.n.deps) {
			if post != nil {
				post(top.n)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		d := top.n.deps[top.next]
		top.next++
		if seen.find(d) >= 0 {
			continue
		}
		seen.add(d)
		if pre != nil && !pre(d) {
			return
		}
		stack = append(stack, frame{n: d})
	}
}

// Traverse visits every node of the DAG (root first, then dependencies in
// name order, depth first) exactly once per name. The visitor returns
// false to stop early.
func (s *Spec) Traverse(visit func(*Spec) bool) { s.walk(visit, nil) }

// Nodes returns all nodes of the DAG in deterministic pre-order.
func (s *Spec) Nodes() []*Spec {
	var buf [inlineNodes]*Spec
	out := buf[:0]
	s.walk(func(n *Spec) bool { out = append(out, n); return true }, nil)
	return slices.Clone(out)
}

// Size returns the number of nodes in the DAG.
func (s *Spec) Size() int {
	n := 0
	s.walk(func(*Spec) bool { n++; return true }, nil)
	return n
}

// TopoOrder returns the nodes bottom-up: every node appears after all of its
// dependencies, so installing in slice order satisfies prerequisites
// (§3.4's bottom-up install traversal).
func (s *Spec) TopoOrder() []*Spec {
	var buf [inlineNodes]*Spec
	out := buf[:0]
	s.walk(nil, func(n *Spec) { out = append(out, n) })
	return slices.Clone(out)
}

// Clone deep-copies the DAG, preserving node sharing. The copy's nodes
// share one allocation, and its edges one per column; each node's edge
// slices are capped, so adding an edge to one node later moves only that
// node's edges.
func (s *Spec) Clone() *Spec {
	var orig nodeSet
	edges := 0
	s.Traverse(func(n *Spec) bool {
		orig.add(n)
		edges += len(n.deps)
		return true
	})
	nodes := make([]Spec, orig.n)
	deps := make([]*Spec, edges)
	types := make([]DepType, edges)
	i := 0
	s.Traverse(func(n *Spec) bool { // the same order again: n is orig's i-th node
		c := n.copyNode(&nodes[i])
		i++
		if k := len(n.deps); k > 0 {
			c.deps, deps = deps[:k:k], deps[k:]
			c.depTypes, types = types[:k:k], types[k:]
			copy(c.depTypes, n.depTypes)
			for j, d := range n.deps {
				c.deps[j] = &nodes[orig.find(d)]
			}
		}
		return true
	})
	return &nodes[0]
}
