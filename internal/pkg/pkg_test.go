package pkg

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

func TestBuilderMetadata(t *testing.T) {
	p := New("mpileaks").
		Describe("Tool to detect and report leaked MPI objects.").
		WithHomepage("https://github.com/hpc/mpileaks").
		WithURL("https://github.com/hpc/mpileaks/releases/download/v1.0/mpileaks-1.0.tar.gz").
		WithVersion("1.0", "8838c574b39202a57d7c2d68692718aa").
		WithVersion("1.1", "4282eddb08ad8d36df15b06d4be38bcb").
		DependsOn("mpi").
		DependsOn("callpath")
	if p.Name != "mpileaks" || !strings.Contains(p.Description, "leaked MPI") {
		t.Error("metadata not recorded")
	}
	if len(p.VersionInfos) != 2 || len(p.Dependencies) != 2 {
		t.Errorf("directives = %d versions, %d deps", len(p.VersionInfos), len(p.Dependencies))
	}
	vi, ok := p.VersionInfo(version.Parse("1.0"))
	if !ok || vi.MD5 != "8838c574b39202a57d7c2d68692718aa" {
		t.Errorf("VersionInfo(1.0) = %+v, %v", vi, ok)
	}
	if _, ok := p.VersionInfo(version.Parse("9.9")); ok {
		t.Error("unknown version should not resolve")
	}
}

func TestKnownVersionsSorted(t *testing.T) {
	p := New("p").
		WithVersion("1.0", "x").
		WithVersion("2.3", "x").
		WithVersion("1.1", "x")
	vs := p.KnownVersions()
	if len(vs) != 3 || vs[0].String() != "2.3" || vs[2].String() != "1.0" {
		t.Errorf("KnownVersions = %v", vs)
	}
}

func TestConditionalDependencies(t *testing.T) {
	// The ROSE example of §3.2.4: boost version depends on compiler.
	p := New("rose").
		DependsOn("boost@1.54.0", When("%gcc@:4")).
		DependsOn("boost@1.59.0", When("%gcc@5:"))

	gcc4 := spec.New("rose")
	gcc4.Compiler = spec.Compiler{Name: "gcc", Versions: mustList(t, "4.9.2")}
	deps := activeDeps(p, gcc4)
	if len(deps) != 1 || deps[0].Constraint.Versions.String() != "1.54.0" {
		t.Errorf("gcc4 deps = %v", deps)
	}

	gcc5 := spec.New("rose")
	gcc5.Compiler = spec.Compiler{Name: "gcc", Versions: mustList(t, "5.2.0")}
	deps = activeDeps(p, gcc5)
	if len(deps) != 1 || deps[0].Constraint.Versions.String() != "1.59.0" {
		t.Errorf("gcc5 deps = %v", deps)
	}

	// Unresolved compiler: neither condition holds yet.
	bare := spec.New("rose")
	if deps := activeDeps(p, bare); len(deps) != 0 {
		t.Errorf("bare deps = %v", deps)
	}
}

func TestVariantGatedDependency(t *testing.T) {
	p := New("hdf5").
		WithVariant("mpi", true, "parallel I/O").
		DependsOn("mpi", When("+mpi")).
		DependsOn("zlib")
	s := spec.New("hdf5")
	s.SetVariant("mpi", true)
	deps := activeDeps(p, s)
	if len(deps) != 2 {
		t.Fatalf("with +mpi: %d deps", len(deps))
	}
	s2 := spec.New("hdf5")
	s2.SetVariant("mpi", false)
	deps = activeDeps(p, s2)
	if len(deps) != 1 || deps[0].Constraint.Name != "zlib" {
		t.Errorf("with ~mpi: %v", deps)
	}
}

// activeDeps returns the dependency directives that apply to s.
func activeDeps(p *Package, s *spec.Spec) []Dependency {
	var out []Dependency
	for _, d := range p.Dependencies {
		if d.ActiveFor(s) {
			out = append(out, d)
		}
	}
	return out
}

func TestProvidesVersioned(t *testing.T) {
	// Fig. 5 exactly.
	mvapich2 := New("mvapich2").
		ProvidesVirtual("mpi@:2.2", "@1.9").
		ProvidesVirtual("mpi@:3.0", "@2.0")
	v19 := spec.New("mvapich2")
	v19.Versions = version.ExactList(version.Parse("1.9"))
	got := mvapich2.ProvidesFor(v19)
	if len(got) != 1 || got[0].Versions.String() != ":2.2" {
		t.Errorf("mvapich2@1.9 provides %v", got)
	}
	v20 := spec.New("mvapich2")
	v20.Versions = version.ExactList(version.Parse("2.0"))
	got = mvapich2.ProvidesFor(v20)
	if len(got) != 1 || got[0].Versions.String() != ":3.0" {
		t.Errorf("mvapich2@2.0 provides %v", got)
	}
	if !mvapich2.ProvidesVirtualName("mpi") {
		t.Error("ProvidesVirtualName(mpi) should be true")
	}
	if mvapich2.ProvidesVirtualName("blas") {
		t.Error("ProvidesVirtualName(blas) should be false")
	}
}

func TestConditionalPatches(t *testing.T) {
	// §3.2.4's Python BG/Q patches.
	p := New("python").
		WithPatch("python-bgq-xlc.patch", "=bgq%xl").
		WithPatch("python-bgq-clang.patch", "=bgq%clang").
		WithPatch("always.patch", "")

	bgqXL := spec.New("python")
	bgqXL.Arch = "bgq"
	bgqXL.Compiler = spec.Compiler{Name: "xl"}
	got := p.PatchesFor(bgqXL)
	if len(got) != 2 {
		t.Fatalf("bgq/xl patches = %v", got)
	}
	if got[0].Name != "python-bgq-xlc.patch" || got[1].Name != "always.patch" {
		t.Errorf("patches = %v", got)
	}

	linux := spec.New("python")
	linux.Arch = "linux-x86_64"
	linux.Compiler = spec.Compiler{Name: "gcc"}
	got = p.PatchesFor(linux)
	if len(got) != 1 || got[0].Name != "always.patch" {
		t.Errorf("linux patches = %v", got)
	}
}

func TestVariantDefault(t *testing.T) {
	p := New("p").WithVariant("debug", false, "").WithVariant("shared", true, "")
	if d, ok := p.VariantDefault("debug"); !ok || d {
		t.Error("debug default should be false")
	}
	if d, ok := p.VariantDefault("shared"); !ok || !d {
		t.Error("shared default should be true")
	}
	if _, ok := p.VariantDefault("nope"); ok {
		t.Error("unknown variant should not resolve")
	}
}

// recordingCtx records the commands an install function issues.
type recordingCtx struct {
	cmds []string
}

func (r *recordingCtx) Configure(args ...string) error {
	r.cmds = append(r.cmds, "configure "+strings.Join(args, " "))
	return nil
}
func (r *recordingCtx) CMake(args ...string) error {
	r.cmds = append(r.cmds, "cmake "+strings.Join(args, " "))
	return nil
}
func (r *recordingCtx) Make(targets ...string) error {
	r.cmds = append(r.cmds, strings.TrimSpace("make "+strings.Join(targets, " ")))
	return nil
}
func (r *recordingCtx) ApplyPatch(name string) error {
	r.cmds = append(r.cmds, "patch "+name)
	return nil
}
func (r *recordingCtx) SetEnv(k, v string) { r.cmds = append(r.cmds, "env "+k+"="+v) }
func (r *recordingCtx) Prefix() string     { return "/prefix" }
func (r *recordingCtx) DepPrefix(name string) (string, error) {
	return "/deps/" + name, nil
}
func (r *recordingCtx) WorkingDir(name string) error {
	r.cmds = append(r.cmds, "cd "+name)
	return nil
}
func (r *recordingCtx) StdCmakeArgs() []string { return []string{"-DCMAKE_INSTALL_PREFIX=/prefix"} }

func concreteSpec(t *testing.T, expr string) *spec.Spec {
	t.Helper()
	return syntax.MustParse(expr)
}

// TestInstallDispatch reproduces Fig. 4: dyninst <= 8.1 uses autotools,
// newer versions the cmake default.
func TestInstallDispatch(t *testing.T) {
	p := New("dyninst").WithBuild("cmake", 10)
	p.OnInstallWhen("@:8.1", func(ctx BuildContext, s *spec.Spec, prefix string) error {
		return ctx.Configure("--prefix=" + prefix)
	})

	old := concreteSpec(t, "dyninst@8.1.2")
	ctx := &recordingCtx{}
	if err := p.InstallFor(old)(ctx, old, "/prefix"); err != nil {
		t.Fatal(err)
	}
	if len(ctx.cmds) != 1 || !strings.HasPrefix(ctx.cmds[0], "configure") {
		t.Errorf("old dyninst commands = %v", ctx.cmds)
	}

	newer := concreteSpec(t, "dyninst@8.2.1")
	ctx = &recordingCtx{}
	if err := p.InstallFor(newer)(ctx, newer, "/prefix"); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(ctx.cmds, "; ")
	if !strings.Contains(joined, "cmake") || !strings.Contains(joined, "cd spack-build") {
		t.Errorf("new dyninst commands = %v", ctx.cmds)
	}
}

func TestGenericAutotoolsInstall(t *testing.T) {
	p := New("libelf")
	s := concreteSpec(t, "libelf@0.8.13")
	ctx := &recordingCtx{}
	if err := p.InstallFor(s)(ctx, s, "/prefix"); err != nil {
		t.Fatal(err)
	}
	want := []string{"configure --prefix=/prefix", "make", "make install"}
	if strings.Join(ctx.cmds, "|") != strings.Join(want, "|") {
		t.Errorf("commands = %v", ctx.cmds)
	}
}

func TestExtends(t *testing.T) {
	p := New("py-numpy").Extends("python")
	if p.Extendee != "python" {
		t.Error("Extendee not set")
	}
	// Extends implies a dependency.
	found := false
	for _, d := range p.Dependencies {
		if d.Constraint.Name == "python" {
			found = true
		}
	}
	if !found {
		t.Error("Extends should add a dependency on the extendee")
	}
}

func TestValidate(t *testing.T) {
	good := New("p").WithVersion("1.0", "x").WithVariant("debug", false, "")
	if err := good.Validate(); err != nil {
		t.Errorf("valid package rejected: %v", err)
	}
	dupV := New("p").WithVersion("1.0", "x").WithVersion("1.0", "y")
	if err := dupV.Validate(); err == nil {
		t.Error("duplicate version should fail validation")
	}
	dupVar := New("p").WithVariant("d", false, "").WithVariant("d", true, "")
	if err := dupVar.Validate(); err == nil {
		t.Error("duplicate variant should fail validation")
	}
	selfDep := New("p").DependsOn("p")
	if err := selfDep.Validate(); err == nil {
		t.Error("self dependency should fail validation")
	}
}

func TestBadDirectivesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty name":     func() { New("") },
		"bad depends_on": func() { New("p").DependsOn("!!") },
		"bad provides":   func() { New("p").ProvidesVirtual("!!", "") },
		"bad when":       func() { New("p").DependsOn("q", When("!!")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func mustList(t *testing.T, s string) version.List {
	t.Helper()
	l, err := version.ParseList(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDeprecatedVersions(t *testing.T) {
	p := New("p").
		WithVersion("1.0", "x").
		WithVersion("2.0", "x", Deprecated()).
		WithVersion("1.5", "x")
	known := p.KnownVersions()
	if len(known) != 2 || known[0].String() != "1.5" {
		t.Errorf("KnownVersions = %v (deprecated 2.0 must be excluded)", known)
	}
	// Still declared, and resolvable when pinned explicitly.
	if len(p.VersionInfos) != 3 {
		t.Errorf("VersionInfos = %v", p.VersionInfos)
	}
	if _, ok := p.VersionInfo(version.Parse("2.0")); !ok {
		t.Error("deprecated version lost its directive")
	}
}

func TestURLFor(t *testing.T) {
	p := New("mpileaks").
		WithURL("https://github.com/hpc/mpileaks/releases/download/v1.0/mpileaks-1.0.tar.gz").
		WithVersion("1.0", "x").
		WithVersion("2.3", "x")
	// The template's own version is returned verbatim.
	if got := p.URLFor(version.Parse("1.0")); !strings.Contains(got, "v1.0/mpileaks-1.0") {
		t.Errorf("URLFor(1.0) = %q", got)
	}
	// Other versions extrapolate (§3.2.3).
	want := "https://github.com/hpc/mpileaks/releases/download/v2.3/mpileaks-2.3.tar.gz"
	if got := p.URLFor(version.Parse("2.3")); got != want {
		t.Errorf("URLFor(2.3) = %q", got)
	}
	// Unknown versions extrapolate too.
	if got := p.URLFor(version.Parse("9.9")); !strings.Contains(got, "v9.9") {
		t.Errorf("URLFor(9.9) = %q", got)
	}
	// Per-version override wins.
	p.WithVersion("0.9", "x", VersionURL("https://old.example.com/mpileaks-legacy.tgz"))
	if got := p.URLFor(version.Parse("0.9")); got != "https://old.example.com/mpileaks-legacy.tgz" {
		t.Errorf("URLFor(0.9) = %q", got)
	}
	// No template: empty.
	if got := New("x").URLFor(version.Parse("1.0")); got != "" {
		t.Errorf("URLFor without template = %q", got)
	}
}
