package spec_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// The walks below are Traverse and TopoOrder as they were when a node's
// edges lived in a map: recursive, with a map of seen names, and every
// node's dependencies re-sorted by name on each visit. The stack-based
// walks must visit in exactly their order.

func oldDirectDeps(n *spec.Spec) []*spec.Spec {
	out := slices.Clone(n.DirectDeps())
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func oldTraverse(s *spec.Spec, visit func(*spec.Spec) bool) {
	seen := make(map[string]bool)
	var walk func(*spec.Spec) bool
	walk = func(n *spec.Spec) bool {
		if seen[n.Name] {
			return true
		}
		seen[n.Name] = true
		if !visit(n) {
			return false
		}
		for _, d := range oldDirectDeps(n) {
			if !walk(d) {
				return false
			}
		}
		return true
	}
	walk(s)
}

func oldTopoOrder(s *spec.Spec) []*spec.Spec {
	var out []*spec.Spec
	state := make(map[string]int)
	var walk func(*spec.Spec)
	walk = func(n *spec.Spec) {
		if state[n.Name] != 0 {
			return
		}
		state[n.Name] = 1
		for _, d := range oldDirectDeps(n) {
			walk(d)
		}
		state[n.Name] = 2
		out = append(out, n)
	}
	walk(s)
	return out
}

// names renders a node sequence for comparison.
func names(nodes []*spec.Spec) string {
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%s@%p ", n.Name, n)
	}
	return b.String()
}

// chain returns p0 -> p1 -> ... -> p(n-1), each node also depending on
// the one two steps down, so most edges reach an already seen node.
func chain(n int) *spec.Spec {
	nodes := make([]*spec.Spec, n)
	for i := range nodes {
		nodes[i] = spec.New(fmt.Sprintf("p%04d", i))
	}
	for i := 0; i+1 < n; i++ {
		nodes[i].SetDep(nodes[i+1], spec.DepDefault)
		if i+2 < n {
			nodes[i].SetDep(nodes[i+2], spec.DepBuild)
		}
	}
	return nodes[0]
}

// walkCorpus is every Fig. 8 and ARES concretization, the 1000-node
// chain, a root with 1000 direct dependencies, and a two-node cycle (the
// concretizer's cycle check walks DAGs before it knows they are acyclic).
func walkCorpus(t *testing.T) []*spec.Spec {
	out := concretizations(t)
	wide := spec.New("wide")
	for i := 999; i >= 0; i-- {
		wide.SetDep(spec.New(fmt.Sprintf("leaf%04d", i)), spec.DepDefault)
	}
	cycle, err := syntax.DecodeJSON([]byte(`{"root": "a", "nodes": {"a": "a", "b": "b"},
		"edges": {"a": ["b"], "b": ["a"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, chain(1000), wide, cycle)
}

// TestWalksMatchMapWalks: Traverse (whole and stopped early), Nodes and
// TopoOrder visit every corpus DAG in the map-based walks' order.
func TestWalksMatchMapWalks(t *testing.T) {
	corpus := walkCorpus(t)
	if len(corpus) != 245+36+3 {
		t.Fatalf("corpus has %d DAGs, want 245 Fig. 8, 36 ARES and 3 synthetic", len(corpus))
	}
	for _, s := range corpus {
		var want []*spec.Spec
		oldTraverse(s, func(n *spec.Spec) bool { want = append(want, n); return true })
		if got := s.Nodes(); names(got) != names(want) {
			t.Fatalf("%s: Nodes\n got %s\nwant %s", s.Name, names(got), names(want))
		}
		if got, want := names(s.TopoOrder()), names(oldTopoOrder(s)); got != want {
			t.Fatalf("%s: TopoOrder\n got %s\nwant %s", s.Name, got, want)
		}
		stop := len(want) / 2
		var got, old []*spec.Spec
		s.Traverse(func(n *spec.Spec) bool { got = append(got, n); return len(got) < stop })
		oldTraverse(s, func(n *spec.Spec) bool { old = append(old, n); return len(old) < stop })
		if names(got) != names(old) {
			t.Fatalf("%s: Traverse stopped after %d\n got %s\nwant %s", s.Name, stop, names(got), names(old))
		}
	}
}

// TestCloneMatchesOriginal: Clone and a Template's root copy every corpus
// DAG node for node and edge for edge (the cycle included), share no node
// with the original, keep one copy per shared node, and hash alike; a
// Template's root arrives with every memo set.
func TestCloneMatchesOriginal(t *testing.T) {
	for _, s := range walkCorpus(t) {
		want := spec.FreshFullHash(s)
		s.FullHash() // memoizes every node's line, and the root's hash, on a concrete DAG
		for _, c := range []*spec.Spec{s.Clone(), spec.NewTemplate(s).Root()} {
			orig, copies := s.Nodes(), c.Nodes()
			if names(orig) == names(copies) || len(orig) != len(copies) {
				t.Fatalf("%s: clone has %d nodes, original %d, or shares them", s.Name, len(copies), len(orig))
			}
			copyOf := make(map[*spec.Spec]*spec.Spec, len(orig))
			for i, o := range orig {
				copyOf[o] = copies[i]
			}
			for i, o := range orig {
				n := copies[i]
				if n == o || string(n.AppendNode(nil)) != string(o.AppendNode(nil)) ||
					n.External != o.External || n.Path != o.Path || n.Namespace != o.Namespace {
					t.Fatalf("%s: node %d is %q, original %q (or the same node)", s.Name, i, n.AppendNode(nil), o.AppendNode(nil))
				}
				od, cd := o.DirectDeps(), n.DirectDeps()
				if len(od) != len(cd) {
					t.Fatalf("%s: %s has %d edges, original %d", s.Name, n.Name, len(cd), len(od))
				}
				for j, d := range od {
					if cd[j] != copyOf[d] || n.EdgeType(d.Name) != o.EdgeType(d.Name) {
						t.Fatalf("%s: edge %s -> %s not copied to its node's one copy", s.Name, o.Name, d.Name)
					}
				}
			}
			if got := spec.FreshFullHash(c); got != want {
				t.Fatalf("%s: clone hashes to %s, original %s", s.Name, got, want)
			}
		}
		if s.Concrete() {
			root := spec.NewTemplate(s).Root()
			if allocs := testing.AllocsPerRun(1, func() { root.FullHash() }); allocs != 0 {
				t.Fatalf("%s: FullHash of a Template's root allocates %v times", s.Name, allocs)
			}
		}
	}
}

// TestEdgeReadsAllocateNothing: reading a node's edges and walking an
// ARES DAG allocate nothing.
func TestEdgeReadsAllocateNothing(t *testing.T) {
	corpus := concretizations(t)
	s := corpus[len(corpus)-1] // the last ARES configuration
	if s.Size() < 20 {
		t.Fatalf("%s has %d nodes, want an ARES-sized DAG", s.Name, s.Size())
	}
	var deps []*spec.Spec
	var found *spec.Spec
	count := 0
	for name, f := range map[string]func(){
		"DirectDeps": func() { deps = s.DirectDeps() },
		"EachDep":    func() { s.EachDep(func(*spec.Spec, spec.DepType) { count++ }) },
		"Traverse":   func() { s.Traverse(func(*spec.Spec) bool { count++; return true }) },
		"Size":       func() { count += s.Size() },
		"Dep":        func() { found = s.Dep("no-such-package") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
	if found != nil || count == 0 || len(deps) == 0 {
		t.Errorf("Dep found %v; count %d; %d direct deps", found, count, len(deps))
	}
	for name, f := range map[string]func(){
		"Nodes":     func() { deps = s.Nodes() },
		"TopoOrder": func() { deps = s.TopoOrder() },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 1 {
			t.Errorf("%s allocates %.1f times per call, want 1 (the result)", name, allocs)
		}
	}
}

// TestEdgeAccessors: SetDep keeps edges sorted and replaces by name,
// RemoveDep drops one, and DirectDeps is a view its caller cannot grow
// into the node's storage.
func TestEdgeAccessors(t *testing.T) {
	s := spec.New("root")
	for _, name := range []string{"m", "c", "x", "a"} {
		s.SetDep(spec.New(name), spec.DepDefault)
	}
	repl := spec.New("c")
	s.SetDep(repl, spec.DepRun)
	s.RemoveDep("x")
	s.RemoveDep("absent")
	if got := names(s.DirectDeps()); got != names([]*spec.Spec{s.DirectDep("a"), repl, s.DirectDep("m")}) {
		t.Fatalf("DirectDeps = %s", got)
	}
	if s.DirectDep("x") != nil || s.EdgeType("c") != spec.DepRun || s.EdgeType("x") != spec.DepDefault {
		t.Errorf("edges after RemoveDep and a replacing SetDep: %s", s.TreeString())
	}
	s.SetDepType("absent", spec.DepBuild)
	if s.DirectDep("absent") != nil || len(s.DirectDeps()) != 3 {
		t.Errorf("SetDepType of a missing edge added one: %s", s.TreeString())
	}
	view := s.DirectDeps()
	_ = append(view, spec.New("zz"))
	if len(s.DirectDeps()) != 3 {
		t.Errorf("appending to the DirectDeps view changed the node: %s", s.TreeString())
	}
	var visited []string
	s.EachDep(func(d *spec.Spec, dt spec.DepType) { visited = append(visited, d.Name+":"+dt.String()) })
	if got := strings.Join(visited, " "); got != "a:build,link c:run m:build,link" {
		t.Errorf("EachDep visited %s", got)
	}
}

// TestConcurrentTraverseAndFullHash: walks and hashing of one shared
// concrete DAG run at once (builders do both); under -race the memos must
// be safe, and every hash must match a fresh recompute.
func TestConcurrentTraverseAndFullHash(t *testing.T) {
	corpus := concretizations(t)
	s := corpus[len(corpus)-1].Clone() // no memos yet
	nodes := s.Nodes()
	want := make([]string, len(nodes))
	for i, n := range nodes {
		want[i] = spec.FreshFullHash(n)
	}
	wantOrder := names(s.TopoOrder())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if g%2 == 0 {
					if got := names(s.TopoOrder()); got != wantOrder {
						t.Errorf("TopoOrder %s, want %s", got, wantOrder)
					}
					s.Traverse(func(n *spec.Spec) bool { _ = n.DirectDeps(); return true })
					continue
				}
				for i := range nodes {
					n := nodes[(i+g)%len(nodes)]
					if got := n.FullHash(); got != want[(i+g)%len(nodes)] {
						t.Errorf("node %s: FullHash %s, want %s", n.Name, got, want[(i+g)%len(nodes)])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
