package spec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/version"
)

// The oracles below are Satisfies, ConstrainChanged and Compatible as they
// were before the node-local fast paths: every call indexes s's whole DAG.
// The fast paths must compute exactly what these do.

func oracleSatisfies(s, o *Spec) bool {
	if !s.satisfiesNode(o) {
		return false
	}
	index := make(map[string]*Spec)
	s.Traverse(func(n *Spec) bool {
		index[n.Name] = n
		return true
	})
	ok := true
	o.Traverse(func(on *Spec) bool {
		if on == o {
			return true
		}
		sn, has := index[on.Name]
		if !has || !sn.satisfiesNode(on) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func oracleConstrainChanged(s, o *Spec) (bool, error) {
	index := make(map[string]*Spec)
	s.Traverse(func(n *Spec) bool {
		index[n.Name] = n
		return true
	})
	nodeKey := func(on *Spec) string {
		if on == o && on.Name == "" {
			return s.Name
		}
		return on.Name
	}
	changed := false
	var werr error
	o.Traverse(func(on *Spec) bool {
		target, ok := index[nodeKey(on)]
		if !ok {
			return true
		}
		c, err := target.constrainNode(on)
		if c || err != nil {
			target.forgetHash()
		}
		if err != nil {
			werr = err
			return false
		}
		changed = changed || c
		return true
	})
	if werr != nil {
		return changed, werr
	}
	for _, on := range o.Nodes() {
		parent, ok := index[nodeKey(on)]
		if !ok {
			continue
		}
		for _, od := range on.DirectDeps() {
			oType := on.EdgeType(od.Name)
			if existing, ok := index[od.Name]; ok {
				if parent.DirectDep(od.Name) == nil {
					parent.SetDep(existing, oType)
					changed = true
				} else if merged := parent.EdgeType(od.Name) | oType; merged != parent.EdgeType(od.Name) {
					parent.SetDepType(od.Name, merged)
					changed = true
				}
			} else {
				clone := od.copyNode(new(Spec))
				parent.SetDep(clone, oType)
				index[od.Name] = clone
				changed = true
			}
		}
	}
	return changed, nil
}

func oracleCompatible(s, o *Spec) bool {
	c := s.Clone()
	_, err := oracleConstrainChanged(c, o)
	return err == nil
}

// memoState renders which nodes of s's DAG hold a memoized FullHash.
func memoState(s *Spec) string {
	out := ""
	for _, n := range s.Nodes() {
		out += fmt.Sprintf("%s:%v ", n.Name, n.hash.Load() != nil)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstOracles runs the three operators and their oracles on copies
// of s and o and reports every disagreement: the answer, changed, the
// error text, the resulting DAG of s and which hash memos survive.
// Compatible must leave s as it was.
func checkAgainstOracles(s, o *Spec) []string {
	var diffs []string
	fail := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	if got, want := s.Satisfies(o), oracleSatisfies(s, o); got != want {
		fail("Satisfies = %v, oracle %v", got, want)
	}

	before, _ := s.canonicalDAG()
	memos := memoState(s)
	if got, want := s.Compatible(o), oracleCompatible(s, o); got != want {
		fail("Compatible = %v, oracle %v", got, want)
	}
	if after, _ := s.canonicalDAG(); after != before {
		fail("Compatible changed s: %q -> %q", before, after)
	}
	if m := memoState(s); m != memos {
		fail("Compatible changed s's memos: %s -> %s", memos, m)
	}

	fast, slow := withMemos(s), withMemos(s)
	oFast, oSlow := o.Clone(), o.Clone()
	gc, gerr := fast.ConstrainChanged(oFast)
	wc, werr := oracleConstrainChanged(slow, oSlow)
	if gc != wc {
		fail("ConstrainChanged changed = %v, oracle %v", gc, wc)
	}
	if errText(gerr) != errText(werr) {
		fail("ConstrainChanged error %q, oracle %q", errText(gerr), errText(werr))
	}
	gd, _ := fast.canonicalDAG()
	wd, _ := slow.canonicalDAG()
	if gd != wd {
		fail("ConstrainChanged DAG %q, oracle %q", gd, wd)
	}
	if gm, wm := memoState(fast), memoState(slow); gm != wm {
		fail("ConstrainChanged memos %s, oracle %s", gm, wm)
	}
	return diffs
}

// withMemos clones s and hashes every node of the clone, so concrete
// nodes carry a memo for ConstrainChanged to keep or drop.
func withMemos(s *Spec) *Spec {
	c := s.Clone()
	for _, n := range c.Nodes() {
		n.FullHash()
	}
	return c
}

// algebraGen builds random specs over a small universe of packages and
// parameters, so generated pairs often overlap, conflict or entail.
type algebraGen struct {
	r *rand.Rand
}

var (
	genPackages  = []string{"a", "b", "c", "d"}
	genVersions  = []string{"1.0", "1.1", "2.0"}
	genRanges    = []string{"1.0:", ":1.1", "1.0:1.1", "2.0:", "1.1,2.0"}
	genCompilers = []string{"gcc", "intel"}
	genCompVers  = []string{"4.7.3", "4.9.2", "15.0.2"}
	genVariants  = []string{"x", "y"}
	genArches    = []string{"linux-x86_64", "bgq"}
)

func (g *algebraGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// node fills one node's parameters; concrete pins all of them.
func (g *algebraGen) node(name string, concrete bool) *Spec {
	n := New(name)
	if concrete || g.r.Intn(2) == 0 {
		if concrete || g.r.Intn(2) == 0 {
			n.Versions = version.ExactList(version.Parse(g.pick(genVersions)))
		} else {
			l, err := version.ParseList(g.pick(genRanges))
			if err != nil {
				panic(err)
			}
			n.Versions = l
		}
	}
	if concrete || g.r.Intn(2) == 0 {
		n.Compiler = Compiler{Name: g.pick(genCompilers)}
		if concrete || g.r.Intn(2) == 0 {
			n.Compiler.Versions = version.ExactList(version.Parse(g.pick(genCompVers)))
		}
	}
	for _, v := range genVariants {
		if concrete || g.r.Intn(3) == 0 {
			n.SetVariant(v, g.r.Intn(2) == 0)
		}
	}
	if concrete || g.r.Intn(3) == 0 {
		n.Arch = g.pick(genArches)
	}
	if g.r.Intn(8) == 0 {
		n.External = true
		n.Path = "/opt/" + g.pick(genPackages)
	}
	return n
}

// dag builds a DAG rooted at root over the packages after it in
// genPackages, with random typed edges; deps names the nodes to include.
func (g *algebraGen) dag(root string, deps []string, concrete bool) *Spec {
	nodes := map[string]*Spec{root: g.node(root, concrete)}
	order := []string{root}
	for _, d := range deps {
		nodes[d] = g.node(d, concrete)
		order = append(order, d)
	}
	for i, name := range order[1:] {
		parent := nodes[order[g.r.Intn(i+1)]]
		t := DepDefault
		if g.r.Intn(4) == 0 {
			t = DepBuild
		}
		if err := parent.AddDepTyped(nodes[name], t); err != nil {
			panic(err)
		}
	}
	// A few extra edges from earlier to later nodes keep it a DAG.
	for i := 0; i+1 < len(order); i++ {
		if g.r.Intn(3) == 0 {
			j := i + 1 + g.r.Intn(len(order)-i-1)
			if err := nodes[order[i]].AddDep(nodes[order[j]]); err != nil {
				panic(err)
			}
		}
	}
	return nodes[root]
}

// subset picks a random subset of names, keeping their order.
func (g *algebraGen) subset(names []string) []string {
	var out []string
	for _, n := range names {
		if g.r.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestNodeLocalFastPathsMatchOracles compares the fast paths with the
// full-index oracles on generated pairs: s is concrete or abstract, and o
// is anonymous, names s's root, names a dependency of s, names a package
// s lacks, or carries dependencies of its own.
func TestNodeLocalFastPathsMatchOracles(t *testing.T) {
	g := &algebraGen{r: rand.New(rand.NewSource(20))}
	kinds := []string{"anonymous", "root", "dependency", "absent", "with-deps", "anonymous-with-deps"}
	for i := 0; i < 4000; i++ {
		concrete := g.r.Intn(2) == 0
		s := g.dag("a", g.subset(genPackages[1:3]), concrete)
		var o *Spec
		kind := kinds[i%len(kinds)]
		switch kind {
		case "anonymous":
			o = g.node("", false)
		case "root":
			o = g.node("a", g.r.Intn(4) == 0)
		case "dependency":
			o = g.node(g.pick(genPackages[1:3]), g.r.Intn(4) == 0)
		case "absent":
			o = g.node("d", false)
		case "with-deps":
			o = g.dag(g.pick([]string{"a", "b"}), []string{"c", "d"}[:1+g.r.Intn(2)], false)
		case "anonymous-with-deps":
			o = g.dag("a", g.subset(genPackages[1:]), false)
			o.Name = ""
		}
		if diffs := checkAgainstOracles(s, o); len(diffs) > 0 {
			t.Fatalf("pair %d (%s): s=%q o=%q:\n%v", i, kind, s, o, diffs)
		}
	}
}

// TestConstrainIgnoresUnreachableNodes pins the documented behaviour: the
// nodes of o reachable only through nodes s lacks are not attached.
func TestConstrainIgnoresUnreachableNodes(t *testing.T) {
	s := New("hdf5")
	o := New("mpich")
	if err := o.AddDep(New("hwloc")); err != nil {
		t.Fatal(err)
	}
	changed, err := s.ConstrainChanged(o)
	if changed || err != nil {
		t.Fatalf("ConstrainChanged = %v, %v; want false, nil", changed, err)
	}
	if got := s.String(); got != "hdf5" {
		t.Errorf("s = %q, want hdf5 unchanged", got)
	}

	// Once s has the root of o, o's subtree is copied below it.
	s = New("hdf5")
	if err := s.AddDep(New("mpich")); err != nil {
		t.Fatal(err)
	}
	changed, err = s.ConstrainChanged(o)
	if !changed || err != nil {
		t.Fatalf("ConstrainChanged = %v, %v; want true, nil", changed, err)
	}
	if s.DirectDep("mpich").DirectDep("hwloc") == nil {
		t.Errorf("s = %q, want hwloc attached under mpich", s)
	}
}
