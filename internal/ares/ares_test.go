package ares

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

func testConcretizer() *concretize.Concretizer {
	path := repo.NewPath(Repo(), repo.Builtin())
	return concretize.New(path, config.New(), compiler.LLNLRegistry())
}

// TestFig13DAG reproduces Fig. 13: the production ARES configuration is a
// 47-package DAG with 1 code, 11 physics, 4 math, 8 utility and 23
// external packages.
func TestFig13DAG(t *testing.T) {
	c := testConcretizer()
	s, err := c.Concretize(syntax.MustParse(Current.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 47 {
		t.Errorf("ARES DAG size = %d, want 47:\n%s", got, s.TreeString())
	}
	counts := make(map[PackageType]int)
	s.Traverse(func(n *spec.Spec) bool {
		ty, ok := Classification[n.Name]
		if !ok {
			t.Errorf("package %s missing from classification", n.Name)
			return true
		}
		counts[ty]++
		return true
	})
	want := map[PackageType]int{
		TypeCode: 1, TypePhysics: 11, TypeMath: 4, TypeUtility: 8, TypeExternal: 23,
	}
	for ty, n := range want {
		if counts[ty] != n {
			t.Errorf("%s count = %d, want %d", ty, counts[ty], n)
		}
	}
}

// TestLiteIsSmaller: the L configuration has a reduced dependency set.
func TestLiteIsSmaller(t *testing.T) {
	c := testConcretizer()
	full, err := c.Concretize(syntax.MustParse(Current.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	lite, err := c.Concretize(syntax.MustParse(Lite.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if lite.Size() >= full.Size() {
		t.Errorf("lite (%d nodes) should be smaller than full (%d)", lite.Size(), full.Size())
	}
	for _, excluded := range []string{"laser", "cretin", "asclaser", "python", "py-scipy", "tcl", "tk"} {
		if lite.Dep(excluded) != nil {
			t.Errorf("lite build should not include %s", excluded)
		}
	}
	// Core physics still present.
	for _, included := range []string{"teton", "leos", "hypre", "samrai"} {
		if lite.Dep(included) == nil {
			t.Errorf("lite build missing %s", included)
		}
	}
}

// TestAresBuildsOwnPython: §4.4 — ARES builds Python 2.7.9 even where the
// native stack does not support it.
func TestAresBuildsOwnPython(t *testing.T) {
	c := testConcretizer()
	s, err := c.Concretize(syntax.MustParse("ares@15.07 %xl =bgq ^bgq-mpi"))
	if err != nil {
		t.Fatal(err)
	}
	py := s.Dep("python")
	if py == nil {
		t.Fatal("no python in bgq ARES DAG")
	}
	if v, _ := py.ConcreteVersion(); v.String() != "2.7.9" {
		t.Errorf("python version = %s, want 2.7.9", v)
	}
	// The BG/Q XL patch applies (§3.2.4).
	if py.Arch != "bgq" || py.Compiler.Name != "xl" {
		t.Errorf("python node = %s", py)
	}
}

// TestMatrixSize: Table 3 has 36 configurations.
func TestMatrixSize(t *testing.T) {
	if got := len(MatrixEntries()); got != 36 {
		t.Errorf("matrix size = %d, want 36", got)
	}
	// 11 arch-compiler-MPI combinations, each with <= 4 configs.
	cells := Matrix()
	if len(cells) != 11 {
		t.Errorf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if len(c.Configs) == 0 || len(c.Configs) > 4 {
			t.Errorf("cell %+v has %d configs", c, len(c.Configs))
		}
	}
}

// TestTable3AllConfigurationsConcretize: every cell of Table 3
// concretizes — the automation the paper reports ("36 different
// configurations have been run using Spack").
func TestTable3AllConfigurationsConcretize(t *testing.T) {
	c := testConcretizer()
	for _, cell := range Matrix() {
		for _, cfg := range cell.Configs {
			expr := SpecFor(cell, cfg)
			s, err := c.Concretize(syntax.MustParse(expr))
			if err != nil {
				t.Errorf("cell %s/%s/%s config %s: %v", cell.Arch, cell.Compiler, cell.MPI, cfg, err)
				continue
			}
			if !s.Concrete() {
				t.Errorf("%s: not concrete", expr)
			}
			// The requested MPI is in the DAG.
			if s.Dep(cell.MPI) == nil {
				t.Errorf("%s: MPI %s not in DAG", expr, cell.MPI)
			}
			// The whole DAG uses the requested architecture.
			s.Traverse(func(n *spec.Spec) bool {
				if n.Arch != cell.Arch {
					t.Errorf("%s: node %s arch %s", expr, n.Name, n.Arch)
					return false
				}
				return true
			})
		}
	}
}

// TestConfigSpecs: the four code configurations map to distinct specs.
func TestConfigSpecs(t *testing.T) {
	seen := make(map[string]bool)
	for _, cfg := range []CodeConfig{Current, Previous, Lite, Development} {
		s := cfg.Spec()
		if seen[s] {
			t.Errorf("duplicate config spec %q", s)
		}
		seen[s] = true
		if _, err := syntax.Parse(s); err != nil {
			t.Errorf("config %s spec %q does not parse: %v", cfg, s, err)
		}
	}
	if Current.String() != "C" || Development.String() != "D" {
		t.Error("config letters wrong")
	}
}

// TestDevelopmentExtraDeps: the development line pins the newer
// gperftools (its conditional dependency).
func TestDevelopmentExtraDeps(t *testing.T) {
	c := testConcretizer()
	s, err := c.Concretize(syntax.MustParse(Development.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	gp := s.Dep("gperftools")
	if gp == nil {
		t.Fatal("gperftools missing")
	}
	if v, _ := gp.ConcreteVersion(); v.String() != "2.4" {
		t.Errorf("develop gperftools = %s, want 2.4", v)
	}
	// Current production takes the default (newest) too but without the
	// explicit pin; both must concretize to valid versions.
	cur, err := c.Concretize(syntax.MustParse(Current.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Dep("gperftools") == nil {
		t.Error("current gperftools missing")
	}
}

// TestSiteRepoOverride: the llnl.ares namespace wins over builtin for
// names it defines, and records its namespace on concretized nodes.
func TestSiteRepoOverride(t *testing.T) {
	c := testConcretizer()
	s, err := c.Concretize(syntax.MustParse("ares@15.07"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Namespace != "llnl.ares" {
		t.Errorf("ares namespace = %q", s.Namespace)
	}
	if got := s.Dep("boost").Namespace; got != "builtin" {
		t.Errorf("boost namespace = %q", got)
	}
}
