package modules

import (
	"strings"
	"testing"

	"repro/internal/buildenv"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

func concreteSpec(t *testing.T, expr string) *spec.Spec {
	t.Helper()
	c := concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
	s, err := c.Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// render is the module file body a generator of kind k writes for s.
func render(k Kind, s *spec.Spec, prefix string) string {
	return string((&Generator{Kind: k}).body(s, prefix))
}

func TestDotkitContent(t *testing.T) {
	s := concreteSpec(t, "libelf")
	dk := render(KindDotkit, s, "/opt/libelf")
	for _, want := range []string{
		"#c spack",
		"#d libelf @0.8.13",
		"dk_alter PATH /opt/libelf/bin",
		"dk_alter MANPATH /opt/libelf/share/man",
		"dk_alter LD_LIBRARY_PATH /opt/libelf/lib",
	} {
		if !strings.Contains(dk, want) {
			t.Errorf("dotkit missing %q:\n%s", want, dk)
		}
	}
}

func TestTCLContent(t *testing.T) {
	s := concreteSpec(t, "libelf")
	m := render(KindTCL, s, "/opt/libelf")
	for _, want := range []string{
		"#%Module1.0",
		"module-whatis",
		"prepend-path PATH /opt/libelf/bin",
		"prepend-path LD_LIBRARY_PATH /opt/libelf/lib",
		"prepend-path PKG_CONFIG_PATH /opt/libelf/lib/pkgconfig",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("module missing %q:\n%s", want, m)
		}
	}
	// The full spec appears for provenance.
	if !strings.Contains(m, s.String()) {
		t.Error("module file should embed the concrete spec")
	}
}

func TestGeneratorWritesFiles(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	s := concreteSpec(t, "libelf")
	g := &Generator{FS: fs, Root: "/spack/share", Kind: KindDotkit}
	path, err := g.Generate(s, "/opt/libelf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, "/spack/share/dotkit/libelf-0.8.13-") {
		t.Errorf("path = %q", path)
	}
	data, err := fs.ReadFile(path)
	if err != nil || !strings.Contains(string(data), "dk_alter") {
		t.Errorf("file content wrong: %v", err)
	}

	gt := &Generator{FS: fs, Root: "/spack/share", Kind: KindTCL}
	pathT, err := gt.Generate(s, "/opt/libelf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathT, "/modules/") {
		t.Errorf("tcl path = %q", pathT)
	}
}

func TestFileNameDistinguishesConfigs(t *testing.T) {
	g := &Generator{FS: simfs.New(simfs.TempFS), Root: "/r", Kind: KindDotkit}
	a := concreteSpec(t, "mpileaks ^mpich")
	b := concreteSpec(t, "mpileaks ^openmpi")
	if g.FileName(a) == g.FileName(b) {
		t.Error("different configurations must get different module files")
	}
}

func TestGenerateAll(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	root := concreteSpec(t, "libdwarf")
	for _, n := range root.TopoOrder() {
		if _, _, err := st.Install(n, n == root, func(string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// One external that must be skipped.
	ext := concreteSpec(t, "zlib")
	ext.External = true
	ext.Path = "/usr"
	if _, _, err := st.Install(ext, false, nil); err != nil {
		t.Fatal(err)
	}

	g := &Generator{FS: fs, Root: "/spack/share", Kind: KindTCL}
	paths, err := g.GenerateAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != root.Size() {
		t.Errorf("generated %d module files, want %d", len(paths), root.Size())
	}
	for _, p := range paths {
		if strings.Contains(p, "zlib") {
			t.Error("external zlib should not get a module file")
		}
	}
}

func TestApplyDotkit(t *testing.T) {
	s := concreteSpec(t, "libelf")
	dk := render(KindDotkit, s, "/opt/libelf")
	env := buildenv.NewEnvironment()
	env.Set("PATH", "/usr/bin")
	if err := ApplyDotkit(dk, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Get("PATH"), "/opt/libelf/bin") {
		t.Errorf("PATH = %q", env.Get("PATH"))
	}
	if !strings.Contains(env.Get("LD_LIBRARY_PATH"), "/opt/libelf/lib") {
		t.Errorf("LD_LIBRARY_PATH = %q", env.Get("LD_LIBRARY_PATH"))
	}
	// Garbage lines are ignored.
	if err := ApplyDotkit("#c comment\nnot a directive\n", env); err != nil {
		t.Fatal(err)
	}
}

func TestApplyTCL(t *testing.T) {
	s := concreteSpec(t, "libelf")
	m := render(KindTCL, s, "/opt/libelf")
	env := buildenv.NewEnvironment()
	if err := ApplyTCL(m, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Get("MANPATH"), "/opt/libelf/share/man") {
		t.Errorf("MANPATH = %q", env.Get("MANPATH"))
	}
}

func TestRemove(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	s := concreteSpec(t, "libelf")
	g := &Generator{FS: fs, Root: "/r", Kind: KindDotkit}
	if _, err := g.Generate(s, "/opt/x"); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove(s); err != nil {
		t.Fatal(err)
	}
	if ex, _ := fs.Stat(g.FileName(s)); ex {
		t.Error("module file survived Remove")
	}
}
