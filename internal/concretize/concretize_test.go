package concretize

import (
	"errors"
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

// testEnv builds the standard test environment: builtin packages, LLNL
// toolchains, default config.
func testEnv() *Concretizer {
	path := repo.NewPath(repo.Builtin())
	cfg := config.New()
	reg := compiler.LLNLRegistry()
	return New(path, cfg, reg)
}

func mustConcretize(t *testing.T, c *Concretizer, expr string) *spec.Spec {
	t.Helper()
	s, err := c.Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatalf("Concretize(%q): %v", expr, err)
	}
	return s
}

// TestUnconstrainedMpileaks reproduces Fig. 2a -> Fig. 7: `spack install
// mpileaks` concretizes to a full DAG with every parameter pinned.
func TestUnconstrainedMpileaks(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks")

	if !s.Concrete() {
		t.Fatalf("result not concrete:\n%s", s.TreeString())
	}
	// All packages of Fig. 7 are present (mpi resolved to some provider).
	for _, name := range []string{"mpileaks", "callpath", "dyninst", "libdwarf", "libelf"} {
		if s.Dep(name) == nil {
			t.Errorf("missing node %s:\n%s", name, s.TreeString())
		}
	}
	// No virtual node remains.
	s.Traverse(func(n *spec.Spec) bool {
		if c.Path.IsVirtual(n.Name) {
			t.Errorf("virtual %s survived concretization", n.Name)
		}
		return true
	})
	// Version pinned to newest known (mpileaks 2.3).
	if v, _ := s.ConcreteVersion(); v.String() != "2.3" {
		t.Errorf("mpileaks version = %s, want newest 2.3", v)
	}
	// One compiler used consistently.
	root := s.Compiler.String()
	s.Traverse(func(n *spec.Spec) bool {
		if !n.External && n.Compiler.String() != root {
			t.Errorf("node %s compiler %s != root %s", n.Name, n.Compiler, root)
		}
		return true
	})
	// Default arch applied everywhere.
	s.Traverse(func(n *spec.Spec) bool {
		if n.Arch != "linux-x86_64" {
			t.Errorf("node %s arch = %s", n.Name, n.Arch)
		}
		return true
	})
}

// TestVersionConstraintOnRoot reproduces Fig. 2b: [email protected] pins only the
// root node.
func TestVersionConstraintOnRoot(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks@2.3")
	if v, _ := s.ConcreteVersion(); v.String() != "2.3" {
		t.Errorf("version = %s", v)
	}
}

// TestRecursiveConstraints reproduces Fig. 2c: constraints on dependencies
// via the caret syntax.
func TestRecursiveConstraints(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks@2.3 ^callpath@1.0+debug ^libelf@0.8.12")
	cp := s.Dep("callpath")
	if v, _ := cp.ConcreteVersion(); v.String() != "1.0" {
		t.Errorf("callpath version = %s", v)
	}
	if on, ok := cp.Variant("debug"); !ok || !on {
		t.Error("callpath +debug lost")
	}
	le := s.Dep("libelf")
	if v, _ := le.ConcreteVersion(); v.String() != "0.8.12" {
		t.Errorf("libelf version = %s", v)
	}
}

// TestVersionRangeSelectsHighest: @1.0:1.1 picks 1.1, not 2.3.
func TestVersionRangeSelectsHighest(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks@1.0:1.1")
	if v, _ := s.ConcreteVersion(); v.String() != "1.1" {
		t.Errorf("version = %s, want 1.1", v)
	}
}

// TestMPIProviderChoice: ^mpich forces the MPI provider (§3.4: "force the
// build to use a particular MPI implementation by supplying ^mpich").
func TestMPIProviderChoice(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks ^mpich")
	if s.Dep("mpich") == nil {
		t.Fatalf("mpich not chosen:\n%s", s.TreeString())
	}
	// mpi must appear nowhere.
	if s.Dep("mpi") != nil {
		t.Error("virtual mpi node survived")
	}
	s2 := mustConcretize(t, c, "mpileaks ^openmpi")
	if s2.Dep("openmpi") == nil {
		t.Fatalf("openmpi not chosen:\n%s", s2.TreeString())
	}
	// openmpi drags in hwloc.
	if s2.Dep("hwloc") == nil {
		t.Error("openmpi's hwloc dependency missing")
	}
}

// TestVersionedVirtuals reproduces Fig. 5: gerris needs mpi@2:, so mpich
// 1.x (providing only mpi@:1) cannot be used; when mpich is forced its
// version must land in the 3.x series (which provides mpi@:3).
func TestVersionedVirtuals(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "gerris ^mpich")
	m := s.Dep("mpich")
	if m == nil {
		t.Fatalf("no mpich in DAG:\n%s", s.TreeString())
	}
	v, _ := m.ConcreteVersion()
	if !strings.HasPrefix(v.String(), "3.") {
		t.Errorf("mpich version %s cannot provide mpi@2:", v)
	}
}

// TestProvidesWhenPinsProviderVersion: choosing mvapich2 for an mpi@:2.2
// interface must respect the provides-when conditions.
func TestProvidesWhenPinsProviderVersion(t *testing.T) {
	c := testEnv()
	// mvapich2@1.9 provides mpi@:2.2; mvapich2@2.0: provides mpi@:3.0.
	s := mustConcretize(t, c, "gerris ^mvapich2")
	m := s.Dep("mvapich2")
	if m == nil {
		t.Fatal("mvapich2 missing")
	}
	// gerris needs mpi@2:, all mvapich2 versions qualify; newest chosen.
	if v, _ := m.ConcreteVersion(); v.String() != "2.1" {
		t.Errorf("mvapich2 version = %s", v)
	}
}

// TestProviderPolicyOrder: site provider order selects the default MPI.
func TestProviderPolicyOrder(t *testing.T) {
	c := testEnv()
	c.Config.Site.SetProviderOrder("mpi", "openmpi")
	s := mustConcretize(t, c, "mpileaks")
	if s.Dep("openmpi") == nil {
		t.Errorf("site provider order ignored:\n%s", s.TreeString())
	}

	// User order overrides site order.
	c2 := testEnv()
	c2.Config.Site.SetProviderOrder("mpi", "openmpi")
	c2.Config.User.SetProviderOrder("mpi", "mvapich2")
	s2 := mustConcretize(t, c2, "mpileaks")
	if s2.Dep("mvapich2") == nil {
		t.Errorf("user provider order ignored:\n%s", s2.TreeString())
	}
}

// TestCompilerConstraint: %gcc@4.7.3 pins the whole DAG's toolchain.
func TestCompilerConstraint(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks%gcc@4.7.3")
	s.Traverse(func(n *spec.Spec) bool {
		if !n.External && n.Compiler.String() != "gcc@4.7.3" {
			t.Errorf("node %s compiler = %s", n.Name, n.Compiler)
		}
		return true
	})
}

// TestCompilerNameOnlyPicksNewest: %intel resolves to the newest intel.
func TestCompilerNameOnlyPicksNewest(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks%intel")
	if s.Compiler.String() != "intel@15.0.2" {
		t.Errorf("compiler = %s", s.Compiler)
	}
}

// TestCompilerOrderPolicy reproduces §4.3.1's compiler_order example.
func TestCompilerOrderPolicy(t *testing.T) {
	c := testEnv()
	if err := c.Config.Site.SetCompilerOrder("intel,gcc@4.7.3"); err != nil {
		t.Fatal(err)
	}
	s := mustConcretize(t, c, "mpileaks")
	if s.Compiler.Name != "intel" {
		t.Errorf("compiler = %s, want intel first", s.Compiler)
	}
}

// TestPerNodeCompilerOverride: a dependency can use a different compiler
// (Table 2 row 7).
func TestPerNodeCompilerOverride(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks%gcc@4.7.3 ^callpath%gcc@4.4.7")
	if s.Compiler.String() != "gcc@4.7.3" {
		t.Errorf("root compiler = %s", s.Compiler)
	}
	if got := s.Dep("callpath").Compiler.String(); got != "gcc@4.4.7" {
		t.Errorf("callpath compiler = %s", got)
	}
	// Nodes below callpath inherit callpath's compiler.
	if got := s.Dep("dyninst").Compiler.String(); got != "gcc@4.4.7" {
		t.Errorf("dyninst compiler = %s (should inherit from callpath)", got)
	}
}

// TestVariantDefaultsFilled: hdf5's +mpi default activates the conditional
// mpi dependency.
func TestVariantDefaultsFilled(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "hdf5")
	if on, ok := s.Variant("mpi"); !ok || !on {
		t.Error("hdf5 mpi variant should default on")
	}
	// The conditional dependency fired.
	hasMPI := false
	s.Traverse(func(n *spec.Spec) bool {
		def, _, ok := c.Path.Get(n.Name)
		if ok && def.ProvidesVirtualName("mpi") {
			hasMPI = true
		}
		return true
	})
	if !hasMPI {
		t.Errorf("+mpi did not pull in an MPI provider:\n%s", s.TreeString())
	}

	// Disabling the variant removes the dependency.
	s2 := mustConcretize(t, c, "hdf5~mpi")
	s2.Traverse(func(n *spec.Spec) bool {
		def, _, ok := c.Path.Get(n.Name)
		if ok && def.ProvidesVirtualName("mpi") {
			t.Errorf("~mpi build still has MPI provider %s", n.Name)
		}
		return true
	})
}

// TestSiteVariantOverride: config flips a package's variant default.
func TestSiteVariantOverride(t *testing.T) {
	c := testEnv()
	c.Config.Site.SetVariantDefault("hdf5", "mpi", false)
	s := mustConcretize(t, c, "hdf5")
	if on, _ := s.Variant("mpi"); on {
		t.Error("site override to ~mpi ignored")
	}
}

// TestPreferredVersion: site-preferred versions beat newest-wins.
func TestPreferredVersion(t *testing.T) {
	c := testEnv()
	if err := c.Config.Site.PreferVersion("mpileaks", "1.1"); err != nil {
		t.Fatal(err)
	}
	s := mustConcretize(t, c, "mpileaks")
	if v, _ := s.ConcreteVersion(); v.String() != "1.1" {
		t.Errorf("version = %s, want preferred 1.1", v)
	}
	// An explicit user constraint outranks the preference.
	s2 := mustConcretize(t, c, "mpileaks@2.3")
	if v, _ := s2.ConcreteVersion(); v.String() != "2.3" {
		t.Errorf("version = %s, want 2.3", v)
	}
}

// TestConditionalDependencyByCompiler reproduces §3.2.4's ROSE example.
func TestConditionalDependencyByCompiler(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "rose%gcc@4.7.3")
	b := s.Dep("boost")
	if b == nil {
		t.Fatal("boost missing")
	}
	if v, _ := b.ConcreteVersion(); v.String() != "1.54.0" {
		t.Errorf("boost = %s, want 1.54.0 for gcc 4", v)
	}
}

// TestUnknownVersionExtrapolated: an exact version Spack doesn't know is
// adopted for fetching (§3.2.3).
func TestUnknownVersionExtrapolated(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "libelf@0.8.14")
	if v, _ := s.ConcreteVersion(); v.String() != "0.8.14" {
		t.Errorf("version = %s", v)
	}
}

// TestNoVersionError: a range admitting nothing known fails.
func TestNoVersionError(t *testing.T) {
	c := testEnv()
	_, err := c.Concretize(syntax.MustParse("libelf@99:100"))
	var nv *NoVersionError
	if !errors.As(err, &nv) {
		t.Fatalf("want NoVersionError, got %v", err)
	}
	if nv.Package != "libelf" || len(nv.Known) == 0 {
		t.Errorf("error detail = %+v", nv)
	}
}

// TestConflictReported: user version conflicts with a package constraint.
func TestConflictReported(t *testing.T) {
	c := testEnv()
	// gerris requires mpi@2:; mpich@1.4.1 only provides mpi@:1.
	_, err := c.Concretize(syntax.MustParse("gerris ^mpich@1.4.1"))
	if err == nil {
		t.Fatal("expected a conflict")
	}
	var np *NoProviderError
	if !errors.As(err, &np) {
		t.Fatalf("want NoProviderError, got %T: %v", errors.Unwrap(err), err)
	}
}

// TestUnknownPackage: unknown names fail cleanly.
func TestUnknownPackage(t *testing.T) {
	c := testEnv()
	_, err := c.Concretize(syntax.MustParse("no-such-pkg"))
	var up *UnknownPackageError
	if !errors.As(err, &up) || up.Name != "no-such-pkg" {
		t.Fatalf("want UnknownPackageError, got %v", err)
	}
}

// TestUnknownVariantRejected: +bogus on a package without it fails.
func TestUnknownVariantRejected(t *testing.T) {
	c := testEnv()
	_, err := c.Concretize(syntax.MustParse("libelf+bogus"))
	var uv *UnknownVariantError
	if !errors.As(err, &uv) || uv.Variant != "bogus" {
		t.Fatalf("want UnknownVariantError, got %v", err)
	}
}

// TestUnknownCompilerRejected: a compiler missing from the registry fails.
func TestUnknownCompilerRejected(t *testing.T) {
	c := testEnv()
	_, err := c.Concretize(syntax.MustParse("libelf%craycc"))
	var nc *NoCompilerError
	if !errors.As(err, &nc) {
		t.Fatalf("want NoCompilerError, got %v", err)
	}
}

// TestArchRestrictsCompilers: on bgq only clang and xl exist.
func TestArchRestrictsCompilers(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "libelf=bgq%xl")
	if s.Compiler.Name != "xl" || s.Arch != "bgq" {
		t.Errorf("spec = %s", s)
	}
	if _, err := c.Concretize(syntax.MustParse("libelf=bgq%gcc")); err == nil {
		t.Error("gcc is not available on bgq; expected failure")
	}
}

// TestExternalPackage: a registered vendor MPI satisfies mpi without a
// store build (§4.4).
func TestExternalPackage(t *testing.T) {
	c := testEnv()
	if err := c.Config.Site.AddExternal("bgq-mpi@1.0", "bgq", "/bgsys/drivers/ppcfloor/comm"); err != nil {
		t.Fatal(err)
	}
	c.Config.Site.SetProviderOrder("mpi", "bgq-mpi")
	c.Config.Site.DefaultArch = "bgq"
	s := mustConcretize(t, c, "mpileaks%xl")
	m := s.Dep("bgq-mpi")
	if m == nil {
		t.Fatalf("bgq-mpi missing:\n%s", s.TreeString())
	}
	if !m.External || m.Path != "/bgsys/drivers/ppcfloor/comm" {
		t.Errorf("external not applied: %+v", m)
	}
}

// TestDeterminism: concretizing the same spec twice yields identical DAGs
// (reproducible builds, §3.4.3).
func TestDeterminism(t *testing.T) {
	c := testEnv()
	a := mustConcretize(t, c, "mpileaks")
	b := mustConcretize(t, c, "mpileaks")
	if a.String() != b.String() || a.DAGHash() != b.DAGHash() {
		t.Errorf("nondeterministic concretization:\n%s\nvs\n%s", a, b)
	}
}

// TestInputNotMutated: Concretize must not modify the abstract input.
func TestInputNotMutated(t *testing.T) {
	c := testEnv()
	in := syntax.MustParse("mpileaks@1.0:")
	before := in.String()
	if _, err := c.Concretize(in); err != nil {
		t.Fatal(err)
	}
	if in.String() != before {
		t.Errorf("input mutated: %q -> %q", before, in.String())
	}
}

// TestIdempotent: concretizing a concrete spec returns an equal spec.
func TestIdempotent(t *testing.T) {
	c := testEnv()
	once := mustConcretize(t, c, "mpileaks")
	twice, err := c.Concretize(once)
	if err != nil {
		t.Fatal(err)
	}
	if once.String() != twice.String() {
		t.Errorf("not idempotent:\n%s\nvs\n%s", once, twice)
	}
}

// TestSatisfiesInput: the concrete result always satisfies the abstract
// request — the core soundness property of Fig. 6.
func TestSatisfiesInput(t *testing.T) {
	c := testEnv()
	for _, expr := range []string{
		"mpileaks",
		"mpileaks@1.1",
		"mpileaks@1.0:2.0",
		"mpileaks%gcc@4.7.3",
		"mpileaks ^mpich",
		"mpileaks ^callpath@1.0+debug ^libelf@0.8.12",
		"hdf5~mpi",
		"gerris ^mvapich2@2.0",
		"dyninst@8.1.1",
	} {
		in := syntax.MustParse(expr)
		out, err := c.Concretize(in)
		if err != nil {
			t.Errorf("Concretize(%q): %v", expr, err)
			continue
		}
		if !out.Satisfies(in) {
			t.Errorf("result of %q does not satisfy input:\n%s", expr, out.TreeString())
		}
		if !out.Concrete() {
			t.Errorf("result of %q not concrete", expr)
		}
	}
}

// TestSingleNodePerName: no DAG ever contains two nodes of one package.
func TestSingleNodePerName(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks ^openmpi")
	counts := make(map[string]int)
	var count func(n *spec.Spec, seen map[*spec.Spec]bool)
	count = func(n *spec.Spec, seen map[*spec.Spec]bool) {
		if seen[n] {
			return
		}
		seen[n] = true
		counts[n.Name]++
		for _, d := range n.DirectDeps() {
			count(d, seen)
		}
	}
	count(s, make(map[*spec.Spec]bool))
	for name, n := range counts {
		if n != 1 {
			t.Errorf("package %s appears %d times", name, n)
		}
	}
}

// backtrackEnv builds the §4.5 scenario: package ptool depends on
// hwloc2@1.9 and net (virtual); provider aaanet (greedy first) strictly
// needs hwloc2@1.11, provider bbbnet needs hwloc2@1.9.
func backtrackEnv() *Concretizer {
	r := repo.NewRepo("test")
	hw := pkg.New("hwloc2").Describe("hw").WithVersion("1.9", "x").WithVersion("1.11", "x")
	r.MustAdd(hw)
	a := pkg.New("aaanet").Describe("net A").WithVersion("1.0", "x").
		ProvidesVirtual("net", "").DependsOn("hwloc2@1.11")
	r.MustAdd(a)
	b := pkg.New("bbbnet").Describe("net B").WithVersion("1.0", "x").
		ProvidesVirtual("net", "").DependsOn("hwloc2@1.9")
	r.MustAdd(b)
	p := pkg.New("ptool").Describe("tool").WithVersion("1.0", "x").
		DependsOn("hwloc2@1.9").DependsOn("net")
	r.MustAdd(p)
	return New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
}

// TestGreedyConflict reproduces §4.5's limitation: the greedy algorithm
// picks the first provider, hits the hwloc conflict, and raises an error
// rather than backtracking.
func TestGreedyConflict(t *testing.T) {
	c := backtrackEnv()
	_, err := c.Concretize(syntax.MustParse("ptool"))
	if err == nil {
		t.Fatal("greedy concretization should conflict")
	}
	var ce *spec.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	// The user can resolve it by being explicit, exactly as §3.4 says.
	s, err := c.Concretize(syntax.MustParse("ptool ^bbbnet"))
	if err != nil {
		t.Fatalf("explicit provider should fix the conflict: %v", err)
	}
	if s.Dep("bbbnet") == nil {
		t.Error("bbbnet not used")
	}
}

// TestBacktrackingFindsSolution: with the future-work extension enabled,
// the same spec concretizes by exploring the second provider.
func TestBacktrackingFindsSolution(t *testing.T) {
	c := backtrackEnv()
	c.Backtracking = true
	s, err := c.Concretize(syntax.MustParse("ptool"))
	if err != nil {
		t.Fatalf("backtracking failed: %v", err)
	}
	if s.Dep("bbbnet") == nil {
		t.Errorf("backtracking should select bbbnet:\n%s", s.TreeString())
	}
	if c.Stats.Backtracks() == 0 {
		t.Error("no backtracks recorded")
	}
}

// TestBacktrackingUnsolvable: when no assignment works the original greedy
// error is reported.
func TestBacktrackingUnsolvable(t *testing.T) {
	c := backtrackEnv()
	c.Backtracking = true
	_, err := c.Concretize(syntax.MustParse("ptool ^hwloc2@1.7"))
	if err == nil {
		t.Fatal("unsolvable spec should fail")
	}
}

// TestStats: counters move.
func TestStats(t *testing.T) {
	c := testEnv()
	mustConcretize(t, c, "mpileaks")
	if c.Stats.Runs() != 1 || c.Stats.Iterations() == 0 || c.Stats.VirtualsSeen() == 0 {
		t.Errorf("stats = runs %d iters %d virtuals %d", c.Stats.Runs(), c.Stats.Iterations(), c.Stats.VirtualsSeen())
	}
}

// TestAnonymousSpecRejected: concretizing an anonymous constraint fails.
func TestAnonymousSpecRejected(t *testing.T) {
	c := testEnv()
	if _, err := c.Concretize(syntax.MustParse("+debug")); err == nil {
		t.Error("anonymous spec should not concretize")
	}
}

// TestWholeRepoConcretizes: every builtin package concretizes without
// error — the workload of Fig. 8.
func TestWholeRepoConcretizes(t *testing.T) {
	c := testEnv()
	for _, name := range c.Path.Names() {
		in := spec.New(name)
		out, err := c.Concretize(in)
		if err != nil {
			t.Errorf("Concretize(%s): %v", name, err)
			continue
		}
		if !out.Concrete() {
			t.Errorf("%s: result not concrete", name)
		}
	}
}

// TestVersionListConstraint: a multi-range constraint concretizes into one
// admitted version.
func TestVersionListConstraint(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "mpileaks@1.0:1.1,2.3")
	v, _ := s.ConcreteVersion()
	l, _ := version.ParseList("1.0:1.1,2.3")
	if !l.Contains(v) {
		t.Errorf("version %s outside constraint", v)
	}
}

// TestDeprecatedVersionSkipped: openssl 1.0.1h is deprecated — never
// chosen automatically, still installable by explicit pin.
func TestDeprecatedVersionSkipped(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "openssl")
	if v, _ := s.ConcreteVersion(); v.String() != "1.0.2d" {
		t.Errorf("openssl = %s, deprecated 1.0.1h must not win", v)
	}
	// A range admitting only the deprecated version falls through to the
	// exact-pin path only for single versions; ranges fail.
	pinned := mustConcretize(t, c, "openssl@1.0.1h")
	if v, _ := pinned.ConcreteVersion(); v.String() != "1.0.1h" {
		t.Errorf("explicit pin = %s", v)
	}
}

// TestUnknownPackageSuggestions: typos get "did you mean" hints.
func TestUnknownPackageSuggestions(t *testing.T) {
	c := testEnv()
	_, err := c.Concretize(syntax.MustParse("mpileakz"))
	var up *UnknownPackageError
	if !errors.As(err, &up) {
		t.Fatalf("want UnknownPackageError, got %v", err)
	}
	if len(up.Suggestions) == 0 || up.Suggestions[0] != "mpileaks" {
		t.Errorf("suggestions = %v", up.Suggestions)
	}
	if !strings.Contains(err.Error(), "did you mean mpileaks") {
		t.Errorf("error text = %v", err)
	}
	// Wildly wrong names get no suggestions.
	_, err = c.Concretize(syntax.MustParse("qqqqqqqqqqqqqqqqq"))
	if errors.As(err, &up) && len(up.Suggestions) != 0 {
		t.Errorf("unexpected suggestions: %v", up.Suggestions)
	}
}

func TestEditDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"mpileakz", "mpileaks", 1},
		{"hdf", "hdf5", 1},
	}
	for _, tt := range tests {
		if got := editDistance(tt.a, tt.b); got != tt.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestCrossCompiledDependency reproduces §3.2.3's front-end/back-end
// split: "this mechanism allows front-end tools to depend on their
// back-end measurement libraries with a different architecture on
// cross-compiled machines". A Linux front-end tool depends on a BG/Q
// back-end library; each node gets an arch-appropriate compiler.
func TestCrossCompiledDependency(t *testing.T) {
	c := testEnv()
	s := mustConcretize(t, c, "libdwarf=linux-x86_64 ^libelf=bgq")
	if s.Arch != "linux-x86_64" || s.Compiler.Name != "gcc" {
		t.Errorf("front end = %s", s)
	}
	le := s.Dep("libelf")
	if le.Arch != "bgq" {
		t.Fatalf("back end arch = %s", le.Arch)
	}
	if le.Compiler.Name != "clang" && le.Compiler.Name != "xl" {
		t.Errorf("back end compiler = %s (must be a bgq toolchain, not inherited gcc)", le.Compiler)
	}
	// Same-arch children still inherit normally.
	s2 := mustConcretize(t, c, "libdwarf%gcc@4.7.3")
	if got := s2.Dep("libelf").Compiler.String(); got != "gcc@4.7.3" {
		t.Errorf("same-arch inheritance broken: %s", got)
	}
}

// TestProviderAttachedInSamePass: a provider a node attached earlier in the
// same pass satisfies that node's later virtual dependency directly, so no
// virtual node is created and resolved.
func TestProviderAttachedInSamePass(t *testing.T) {
	r := repo.NewRepo("samepass")
	app := pkg.New("app").Describe("a").DependsOn("impl").DependsOn("iface")
	app.WithVersion("1.0", "x")
	r.MustAdd(app)
	impl := pkg.New("impl").Describe("i").ProvidesVirtual("iface", "")
	impl.WithVersion("1.0", "x")
	r.MustAdd(impl)
	c := New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
	out, err := c.Concretize(syntax.MustParse("app"))
	if err != nil {
		t.Fatal(err)
	}
	if out.DirectDep("impl") == nil || out.Dep("iface") != nil {
		t.Errorf("app = %s, want impl as the only dependency", out)
	}
	if n := c.Stats.VirtualsSeen(); n != 0 {
		t.Errorf("resolved %d virtual nodes, want 0", n)
	}
}
