package repo

import (
	"testing"

	"repro/internal/pkg"
	"repro/internal/syntax"
)

func TestBuiltinWellFormed(t *testing.T) {
	r := Builtin()
	if r.Len() < 40 {
		t.Errorf("builtin repo has only %d packages", r.Len())
	}
	for _, name := range r.Names() {
		p, _ := r.Get(name)
		if err := p.Validate(); err != nil {
			t.Errorf("package %s invalid: %v", name, err)
		}
		if p.Description == "" {
			t.Errorf("package %s missing description", name)
		}
		if len(p.VersionInfos) == 0 {
			t.Errorf("package %s has no versions", name)
		}
	}
}

func TestBuiltinDependencyClosure(t *testing.T) {
	// Every declared dependency must resolve to a package or a virtual.
	r := Builtin()
	path := NewPath(r)
	for _, name := range r.Names() {
		p, _ := r.Get(name)
		for _, d := range p.Dependencies {
			dep := d.Constraint.Name
			if _, _, ok := path.Get(dep); ok {
				continue
			}
			if path.IsVirtual(dep) {
				continue
			}
			t.Errorf("package %s depends on unknown %q", name, dep)
		}
	}
}

func TestPathPrecedence(t *testing.T) {
	builtin := NewRepo("builtin")
	builtin.MustAdd(pkg.New("zlib").Describe("builtin zlib").WithVersion("1.2.8", "x"))
	site := NewRepo("llnl.site")
	site.MustAdd(pkg.New("zlib").Describe("site zlib").WithVersion("1.2.8-llnl", "y"))

	path := NewPath(builtin)
	p, ns, ok := path.Get("zlib")
	if !ok || ns != "builtin" || p.Description != "builtin zlib" {
		t.Fatalf("builtin lookup = %v %q %v", p, ns, ok)
	}

	// Site repo prepended overrides builtin (§4.3.2).
	path.Prepend(site)
	p, ns, ok = path.Get("zlib")
	if !ok || ns != "llnl.site" || p.Description != "site zlib" {
		t.Errorf("site override failed: %v %q", p.Description, ns)
	}
	if len(path.Repos()) != 2 {
		t.Errorf("repos = %d", len(path.Repos()))
	}
}

func TestPathNamesUnion(t *testing.T) {
	a := NewRepo("a")
	a.MustAdd(pkg.New("x").Describe("d").WithVersion("1", "c"))
	b := NewRepo("b")
	b.MustAdd(pkg.New("x").Describe("d").WithVersion("1", "c"))
	b.MustAdd(pkg.New("y").Describe("d").WithVersion("1", "c"))
	path := NewPath(a, b)
	names := path.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
}

func TestIsVirtual(t *testing.T) {
	path := NewPath(Builtin())
	if !path.IsVirtual("mpi") {
		t.Error("mpi should be virtual")
	}
	if !path.IsVirtual("blas") || !path.IsVirtual("lapack") {
		t.Error("blas/lapack should be virtual")
	}
	if path.IsVirtual("mpich") {
		t.Error("mpich is a real package")
	}
	if path.IsVirtual("no-such-thing") {
		t.Error("unknown names are not virtual")
	}
}

func TestVirtualsList(t *testing.T) {
	path := NewPath(Builtin())
	vs := path.Virtuals()
	want := map[string]bool{"mpi": true, "blas": true, "lapack": true}
	for _, v := range vs {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Errorf("missing virtuals: %v (got %v)", want, vs)
	}
}

func TestProviderNames(t *testing.T) {
	path := NewPath(Builtin())
	names := path.ProviderNames("mpi")
	set := make(map[string]bool)
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"mpich", "mvapich2", "openmpi", "bgq-mpi", "cray-mpi"} {
		if !set[want] {
			t.Errorf("mpi providers missing %s: %v", want, names)
		}
	}
}

// TestProvidersForVersionConstraint reproduces Fig. 5's resolution: for
// mpi@2:, mpich 1.x is excluded because it only provides mpi@:1.
func TestProvidersForVersionConstraint(t *testing.T) {
	path := NewPath(Builtin())

	mpi2 := syntax.MustParse("mpi@2:")
	provs := path.ProvidersFor(mpi2)
	for _, pr := range provs {
		if pr.Package.Name == "mpich" && pr.Virtual.Versions.String() == ":1" {
			t.Error("mpich's mpi@:1 entry should not satisfy mpi@2:")
		}
	}
	// mvapich2 must appear (provides mpi@:3.0).
	found := false
	for _, pr := range provs {
		if pr.Package.Name == "mvapich2" {
			found = true
		}
	}
	if !found {
		t.Errorf("mvapich2 should provide mpi@2:; got %v", providerNames(provs))
	}

	// Unconstrained mpi admits everything.
	all := path.ProvidersFor(syntax.MustParse("mpi"))
	if len(all) <= len(provs) {
		t.Errorf("unconstrained providers (%d) should exceed constrained (%d)",
			len(all), len(provs))
	}
}

func providerNames(ps []Provider) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Package.Name)
	}
	return out
}

func TestProvidersForDeterministic(t *testing.T) {
	path := NewPath(Builtin())
	a := providerNames(path.ProvidersFor(syntax.MustParse("mpi")))
	b := providerNames(path.ProvidersFor(syntax.MustParse("mpi")))
	if len(a) != len(b) {
		t.Fatal("nondeterministic provider count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic provider order")
		}
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	r := NewRepo("t")
	bad := pkg.New("p").WithVersion("1.0", "x").WithVersion("1.0", "y")
	if err := r.Add(bad); err == nil {
		t.Error("Add should reject invalid package")
	}
}

func TestGperftoolsBGQDispatch(t *testing.T) {
	// §4.1 / Fig. 12: per-platform install specialization must be wired up.
	r := Builtin()
	gp, _ := r.Get("gperftools")
	patches := gp.PatchesFor(syntax.MustParse("gperftools@2.4%xl=bgq"))
	if len(patches) != 1 || patches[0].Name != "patch.gperftools2.4_xlc" {
		t.Errorf("gperftools bgq/xl patches = %v", patches)
	}
	if got := gp.PatchesFor(syntax.MustParse("gperftools@2.3%gcc=linux-x86_64")); len(got) != 0 {
		t.Errorf("gperftools linux patches = %v", got)
	}
}
