package modules

import (
	"strings"
	"testing"

	"repro/internal/simfs"
	"repro/internal/store"
)

func isMPITest(name string) bool {
	switch name {
	case "mpich", "mvapich2", "openmpi", "mvapich", "bgq-mpi", "cray-mpi":
		return true
	}
	return false
}

func TestLmodHierarchyPath(t *testing.T) {
	g := &Generator{FS: simfs.New(simfs.TempFS), Root: "/spack/share", Kind: KindLmod, IsMPI: isMPITest}

	// MPI-dependent package: compiler/mpi layers.
	withMPI := concreteSpec(t, "mpileaks ^mpich")
	p := g.FileName(withMPI)
	if !strings.Contains(p, "/gcc/4.9.2/mpich/") || !strings.HasSuffix(p, "/mpileaks/2.3.lua") {
		t.Errorf("MPI hierarchy path = %q", p)
	}
	// Serial package: compiler layer only.
	serial := concreteSpec(t, "zlib")
	p = g.FileName(serial)
	if strings.Contains(p, "mpich") || !strings.Contains(p, "/gcc/4.9.2/zlib/") {
		t.Errorf("serial hierarchy path = %q", p)
	}
	// Paths are arch-rooted.
	if !strings.Contains(p, "/lmod/linux-x86_64/") {
		t.Errorf("arch level missing: %q", p)
	}
}

func TestLuaContent(t *testing.T) {
	s := concreteSpec(t, "libelf")
	lua := render(KindLmod, s, "/opt/libelf")
	for _, want := range []string{
		"whatis(\"Name: libelf\")",
		"prepend_path(\"PATH\", \"/opt/libelf/bin\")",
		"prepend_path(\"LD_LIBRARY_PATH\", \"/opt/libelf/lib\")",
		"family(\"libelf\")",
	} {
		if !strings.Contains(lua, want) {
			t.Errorf("lua missing %q:\n%s", want, lua)
		}
	}
}

func TestLmodGenerateAll(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	root := concreteSpec(t, "mpileaks ^mpich")
	for _, n := range root.TopoOrder() {
		if _, _, err := st.Install(n, n == root, func(string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	g := &Generator{FS: fs, Root: "/spack/share", Kind: KindLmod, IsMPI: isMPITest}
	paths, err := g.GenerateAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != root.Size() {
		t.Errorf("generated %d lua files, want %d", len(paths), root.Size())
	}
	// mpich itself sits in the compiler layer (it IS the MPI), its
	// dependents in the mpi layer.
	var mpichPath, mpileaksPath string
	for _, p := range paths {
		if strings.Contains(p, "/mpich/3.1.4.lua") {
			mpichPath = p
		}
		if strings.Contains(p, "/mpileaks/") {
			mpileaksPath = p
		}
	}
	if mpichPath == "" || strings.Contains(mpichPath, "/mpich/3.1.4/mpich/") {
		t.Errorf("mpich path = %q", mpichPath)
	}
	if !strings.Contains(mpileaksPath, "/mpich/3.1.4/mpileaks/") {
		t.Errorf("mpileaks path = %q", mpileaksPath)
	}
	// Files exist with content.
	data, err := fs.ReadFile(mpileaksPath)
	if err != nil || !strings.Contains(string(data), "family(\"mpileaks\")") {
		t.Errorf("lua file content: %v", err)
	}
}

func TestDotOutput(t *testing.T) {
	s := concreteSpec(t, "libdwarf")
	dot := s.DotString(func(name string) string {
		if name == "libelf" {
			return "lightblue"
		}
		return ""
	})
	for _, want := range []string{
		"digraph G {",
		`"libdwarf" -> "libelf"`,
		`fillcolor="lightblue"`,
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}
