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
	s.forgetHash()
	s.depTypes[i] |= t
	return s.deps[i].Constrain(d)
}

// SetDep attaches d as the direct dependency named d.Name with edge type
// t, replacing any edge of that name. Unlike AddDepTyped it merges
// nothing.
func (s *Spec) SetDep(d *Spec, t DepType) {
	s.forgetHash()
	if i, ok := s.depIndex(d.Name); ok {
		s.deps[i], s.depTypes[i] = d, t
	} else {
		s.deps = slices.Insert(s.deps, i, d)
		s.depTypes = slices.Insert(s.depTypes, i, t)
	}
}

// GrowDeps makes room for n more edges, so that attaching them one
// SetDep at a time moves s's edge columns at most once.
func (s *Spec) GrowDeps(n int) {
	s.forgetHash()
	s.deps = slices.Grow(s.deps, n)
	s.depTypes = slices.Grow(s.depTypes, n)
}

// RemoveDep drops the edge to the direct dependency named name, if any.
func (s *Spec) RemoveDep(name string) {
	if i, ok := s.depIndex(name); ok {
		s.forgetHash()
		s.deps = slices.Delete(s.deps, i, i+1)
		s.depTypes = slices.Delete(s.depTypes, i, i+1)
	}
}

// SetDepType reclassifies the edge to a direct dependency; it does
// nothing if s has no edge of that name.
func (s *Spec) SetDepType(name string, t DepType) {
	if i, ok := s.depIndex(name); ok {
		s.forgetHash()
		s.depTypes[i] = t
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
	// tags holds each inline node's nameTag, so the name scan compares
	// names only where the tags match.
	tags   [inlineNodes]uint32
	byName map[string]int // every node's position, once inline is full
}

// nameTag packs a name's length with its middle and last bytes. Names
// that differ in any of them, such as Fig. 8's numbered synthetic
// packages, are told apart without a string compare.
func nameTag(s string) uint32 {
	if s == "" {
		return 0
	}
	return uint32(len(s))<<16 | uint32(s[len(s)/2])<<8 | uint32(s[len(s)-1])
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
	t := nameTag(n.Name)
	for i, tag := range m.tags[:m.n] {
		if tag == t && m.inline[i].Name == n.Name {
			return i
		}
	}
	return -1
}

// add appends n, whose name must not be in the set yet.
func (m *nodeSet) add(n *Spec) {
	if m.n < inlineNodes {
		m.inline[m.n], m.tags[m.n] = n, nameTag(n.Name)
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

// frame is one node on a walk's stack, its position in reach order and
// the index of its next edge.
type frame struct {
	n         *Spec
	pos, next int
}

// walk visits the DAG depth first from s, dependencies in name order,
// each name once: pre (when set) as a node is reached, and post (when
// set) once all of the node's dependencies have been. pre returns false
// to stop the walk. edge (when set) is called for every edge the walk
// crosses, before pre of a child it reaches first, with the positions of
// parent and child in reach order (the order pre sees them, from 0) and
// the edge's index among the parent's. The walk's state lives on its own
// stack, so on a DAG of up to inlineNodes nodes it allocates nothing.
func (s *Spec) walk(pre func(*Spec) bool, post func(*Spec), edge func(from, j, to int)) {
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
		d, from, j := top.n.deps[top.next], top.pos, top.next
		top.next++
		at := seen.find(d)
		first := at < 0
		if first {
			at = seen.n
			seen.add(d)
		}
		if edge != nil {
			edge(from, j, at)
		}
		if !first {
			continue
		}
		if pre != nil && !pre(d) {
			return
		}
		stack = append(stack, frame{n: d, pos: at})
	}
}

// Traverse visits every node of the DAG (root first, then dependencies in
// name order, depth first) exactly once per name. The visitor returns
// false to stop early.
func (s *Spec) Traverse(visit func(*Spec) bool) { s.walk(visit, nil, nil) }

// Nodes returns all nodes of the DAG in deterministic pre-order.
func (s *Spec) Nodes() []*Spec {
	var buf [inlineNodes]*Spec
	out := buf[:0]
	s.walk(func(n *Spec) bool { out = append(out, n); return true }, nil, nil)
	return slices.Clone(out)
}

// Size returns the number of nodes in the DAG.
func (s *Spec) Size() int {
	n := 0
	s.walk(func(*Spec) bool { n++; return true }, nil, nil)
	return n
}

// TopoOrder returns the nodes bottom-up: every node appears after all of its
// dependencies, so installing in slice order satisfies prerequisites
// (§3.4's bottom-up install traversal).
func (s *Spec) TopoOrder() []*Spec {
	var buf [inlineNodes]*Spec
	out := buf[:0]
	s.walk(nil, func(n *Spec) { out = append(out, n) }, nil)
	return slices.Clone(out)
}

// Clone deep-copies the DAG, preserving node sharing. The copy's nodes
// share one allocation, and its edges one per column; each node's edge
// slices are capped, so adding an edge to one node later moves only that
// node's edges. The copy carries no memo: callers clone to change the
// copy (SpliceDep, DropConstraint), and it is hashed afresh.
func (s *Spec) Clone() *Spec {
	var origBuf [inlineNodes]*Spec
	var offBuf [inlineNodes]int
	var toBuf [4 * inlineNodes]int
	orig, off, to := s.plan(origBuf[:0], offBuf[:0], toBuf[:0])
	return &copyPlan(orig, off, to)[0]
}

// plan walks s once and appends to orig the nodes in reach order and to
// to, for every edge, the reach position of its child: orig[i]'s edges'
// children are to[off[i]:off[i]+len(orig[i].deps)].
func (s *Spec) plan(orig []*Spec, off, to []int) ([]*Spec, []int, []int) {
	s.walk(func(n *Spec) bool {
		orig, off = append(orig, n), append(off, len(to))
		to = append(to, make([]int, len(n.deps))...)
		return true
	}, nil, func(from, j, at int) { to[off[from]+j] = at })
	return orig, off, to
}

// copyPlan deep-copies a planned DAG into one array of nodes in reach
// order, each edge finding its copied child by index. The copies carry no
// memo.
func copyPlan(orig []*Spec, off, to []int) []Spec {
	nodes := make([]Spec, len(orig))
	deps := make([]*Spec, len(to))
	types := make([]DepType, len(to))
	for i, n := range orig {
		c := n.copyNode(&nodes[i])
		if k := len(n.deps); k > 0 {
			o := off[i]
			c.deps, c.depTypes = deps[o:o+k:o+k], types[o:o+k:o+k]
			copy(c.depTypes, n.depTypes)
			for j, at := range to[o : o+k] {
				c.deps[j] = &nodes[at]
			}
		}
	}
	return nodes
}

// A Template is a concrete DAG frozen to be shared, as the concretizer's
// memo cache shares an entry with every hit. It holds its own copy of
// the DAG in one array of nodes, each hashed and frozen: reading or
// hashing the root from many goroutines is safe and costs nothing, and
// any mutator called on one of its nodes panics (see Spec).
type Template struct{ nodes []Spec }

// NewTemplate walks s once and takes a copy of it with every node hashed
// and frozen. s itself is left as it is.
func NewTemplate(s *Spec) *Template {
	orig, off, to := s.plan(nil, nil, nil)
	nodes := copyPlan(orig, off, to)
	for i := range nodes {
		n := &nodes[i]
		n.FullHash()
		var m nodeMemo
		if old := n.memo.Load(); old != nil {
			m = *old
		} else {
			// An abstract node memoizes no hash; frozen, its line holds.
			line, node := n.appendLine(nil)
			m = nodeMemo{line: string(line), node: node}
		}
		m.frozen = true
		n.memo.Store(&m)
	}
	return &Template{nodes: nodes}
}

// Root returns the template's frozen DAG. Every caller gets the same
// nodes: a holder that needs a changed DAG derives one (Clone,
// SpliceDep) and changes that.
func (t *Template) Root() *Spec { return &t.nodes[0] }
