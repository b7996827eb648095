package concretize

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

// inheritCompilersOracle is compiler inheritance as a recursive walk with a
// visited set: every edge offers the parent's compiler, a node's own
// dependencies are walked from its first parent only.
func inheritCompilersOracle(root *spec.Spec) bool {
	changed := false
	type inh struct {
		comp spec.Compiler
		arch string
	}
	var walk func(n *spec.Spec, inherited inh)
	seen := make(map[string]bool)
	walk = func(n *spec.Spec, inherited inh) {
		sameArch := inherited.arch == "" || n.Arch == "" || n.Arch == inherited.arch
		if n.Compiler.IsZero() && !inherited.comp.IsZero() && !n.External && sameArch {
			n.Compiler = inherited.comp
			changed = true
		}
		if seen[n.Name] {
			return
		}
		seen[n.Name] = true
		eff := inherited
		if !n.Compiler.IsZero() {
			eff = inh{comp: n.Compiler, arch: n.Arch}
		} else if n.Arch != "" {
			eff.arch = n.Arch
		}
		for _, d := range n.DirectDeps() {
			walk(d, eff)
		}
	}
	walk(root, inh{})
	return changed
}

// randomInheritDAG builds a DAG in which every node below the root has a
// parent earlier in name order, with compilers, architectures and external
// marks drawn so that the order of inheritance decides the outcome.
func randomInheritDAG(rng *rand.Rand, size int) *spec.Spec {
	comps := []spec.Compiler{
		{},
		{Name: "gcc", Versions: version.ExactList(version.MustParse("4.9.2"))},
		{Name: "intel", Versions: version.ExactList(version.MustParse("15.0.1"))},
	}
	archs := []string{"", "", "linux-x86_64", "bgq"}
	nodes := make([]*spec.Spec, size)
	for i := range nodes {
		n := spec.New(fmt.Sprintf("p%02d", i))
		if i > 0 && rng.Intn(3) > 0 {
			n.Compiler = comps[0]
		} else {
			n.Compiler = comps[rng.Intn(len(comps))]
		}
		n.Arch = archs[rng.Intn(len(archs))]
		n.External = rng.Intn(10) == 0
		nodes[i] = n
	}
	for j := 1; j < size; j++ {
		nodes[rng.Intn(j)].SetDep(nodes[j], spec.DepDefault)
		for i := 0; i < j; i++ {
			if rng.Intn(size) < 2 {
				nodes[i].SetDep(nodes[j], spec.DepDefault)
			}
		}
	}
	return nodes[0]
}

func renderCompilers(root *spec.Spec) string {
	var b strings.Builder
	for _, n := range root.Nodes() {
		fmt.Fprintf(&b, "%s%%%s ", n.Name, n.Compiler)
	}
	return b.String()
}

// TestInheritCompilersMatchesRecursiveWalk: the iterative walk over the
// pass snapshot assigns the same compilers, in the same cases, as the
// recursive walk, on random DAGs with shared sub-DAGs where the first
// parent to reach a node decides what it inherits. A resolver is reused
// across DAGs, as across the passes of one run.
func TestInheritCompilersMatchesRecursiveWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := &resolver{c: New(repo.NewPath(), config.New(), compiler.LLNLRegistry())}
	for trial := 0; trial < 500; trial++ {
		root := randomInheritDAG(rng, 2+rng.Intn(30))
		oracleRoot := root.Clone()
		wantChanged := inheritCompilersOracle(oracleRoot)
		want := renderCompilers(oracleRoot)

		r.dagValid = false
		changed := r.inheritCompilers(r.snapshot(root))
		if got := renderCompilers(root); got != want || changed != wantChanged {
			t.Fatalf("trial %d:\ngot  %v %s\nwant %v %s", trial, changed, got, wantChanged, want)
		}
	}
}

// TestDirectiveDependenciesJoinTheSnapshot: a directive or external whose
// constraint carries dependencies of its own attaches nodes below a node
// already linked to its parent. The pass snapshot must notice, or the
// attached node would never be concretized.
func TestDirectiveDependenciesJoinTheSnapshot(t *testing.T) {
	r := repo.NewRepo("nested")
	r.MustAdd(pkg.New("ccc").
		WithVersion("1.0", "x").
		WithVariant("x", true, "pulls in ddd below bbb").
		DependsOn("bbb").
		DependsOn("bbb ^ddd@1.0", pkg.When("+x")))
	r.MustAdd(pkg.New("eee").WithVersion("1.0", "x").DependsOn("bbb"))
	r.MustAdd(pkg.New("bbb").WithVersion("1.0", "x").WithVersion("2.0", "x"))
	r.MustAdd(pkg.New("ddd").WithVersion("1.0", "x").WithVersion("2.0", "x"))
	// The directive's node depends on the nested name itself (hhh on ddd),
	// and a sibling attached in the same pass does too (jjj): both must
	// find the directive's ddd@1.0, not attach a fresh ddd.
	r.MustAdd(pkg.New("ggg").WithVersion("1.0", "x").DependsOn("hhh ^ddd@1.0"))
	r.MustAdd(pkg.New("iii").WithVersion("1.0", "x").
		DependsOn("hhh ^ddd@1.0").
		DependsOn("jjj"))
	r.MustAdd(pkg.New("hhh").WithVersion("1.0", "x").DependsOn("ddd"))
	r.MustAdd(pkg.New("jjj").WithVersion("1.0", "x").DependsOn("ddd"))
	cfg := config.New()
	if err := cfg.Site.AddExternal("bbb@2.0 ^ddd@2.0", "", "/opt/bbb"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		root string
		cfg  *config.Config
		want string
	}{
		{"ccc", config.New(), "ddd@1.0"},
		{"eee", cfg, "ddd@2.0"},
		{"ggg", config.New(), "ddd@1.0"},
		{"iii", config.New(), "ddd@1.0"},
	} {
		c := New(repo.NewPath(r), tc.cfg, compiler.LLNLRegistry())
		out, err := c.Concretize(spec.New(tc.root))
		if err != nil {
			t.Fatalf("%s: %v", tc.root, err)
		}
		d := out.Dep("ddd")
		if d == nil || !d.Concrete() || !d.Satisfies(syntax.MustParse(tc.want)) {
			t.Errorf("%s: ddd = %v, want a concrete %s in\n%s", tc.root, d, tc.want, out.TreeString())
		}
		// A walk lists one node per name, so a second node of a name shows
		// only as an edge that does not reach the listed one.
		byName := map[string]*spec.Spec{}
		for _, n := range out.Nodes() {
			byName[n.Name] = n
		}
		for _, n := range out.Nodes() {
			for _, d := range n.DirectDeps() {
				if byName[d.Name] != d {
					t.Errorf("%s: %s -> %s is a second %s node in\n%s", tc.root, n.Name, d, d.Name, out.TreeString())
				}
			}
		}
	}
}

// TestDeepChainConverges: a pass visits the nodes it attaches, so the first
// pass closes a chain of any depth and pins every node, and the second
// changes nothing. The pass count does not depend on depth.
func TestDeepChainConverges(t *testing.T) {
	for _, depth := range []int{63, 200, 1000} {
		r := repo.NewRepo("chain")
		r.MustAdd(pkg.New("p1").WithVersion("1.0", "x"))
		for i := 2; i <= depth; i++ {
			r.MustAdd(pkg.New(fmt.Sprintf("p%d", i)).
				WithVersion("1.0", "x").
				DependsOn(fmt.Sprintf("p%d", i-1)))
		}
		c := New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
		out, err := c.Concretize(spec.New(fmt.Sprintf("p%d", depth)))
		if err != nil {
			t.Errorf("depth %d: %v", depth, err)
			continue
		}
		if got := len(out.Nodes()); got != depth {
			t.Errorf("depth %d: %d nodes", depth, got)
		}
		if got := c.Stats.Iterations(); got != 2 {
			t.Errorf("depth %d: %d iterations, want 2", depth, got)
		}
	}
}
