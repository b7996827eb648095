// Byte-identity of the naming layer. The install layouts of Table 1, the
// dotkit/TCL/Lmod module files of §3.5.4 and the view templates of
// §4.3.1 render the same compiler, variant and MPI facts; the oracles
// below are frozen copies of the renderers each layer carried for itself
// before they came to share one implementation in internal/spec.
package repro

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/views"
)

func oracleOptions(s *spec.Spec) string {
	var b strings.Builder
	names := make([]string, 0, len(s.Variants))
	for n := range s.Variants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if on, _ := s.Variant(n); on {
			b.WriteByte('+')
		} else {
			b.WriteByte('~')
		}
		b.WriteString(n)
	}
	return b.String()
}

func oracleVersion(s *spec.Spec) string {
	if v, ok := s.ConcreteVersion(); ok {
		return v.String()
	}
	return s.Versions.String()
}

func oracleCompDir(s *spec.Spec) string {
	comp := s.Compiler.Name
	if v := s.Compiler.Versions.String(); v != "" {
		comp += "-" + v
	}
	return comp
}

// oracleLayouts renders s under the four Table 1 conventions, in the
// order spack, llnl, ornl, tacc.
func oracleLayouts(s *spec.Spec, isMPI func(string) bool) [4]string {
	var out [4]string
	leaf := s.Name + "-" + oracleVersion(s)
	if opts := oracleOptions(s); opts != "" {
		leaf += "-" + opts
	}
	out[0] = s.Arch + "/" + oracleCompDir(s) + "/" + leaf + "-" + s.DAGHash()

	build := oracleOptions(s)
	if build == "" {
		build = "default"
	}
	out[1] = s.Name + "-" + oracleCompDir(s) + "-" + build + "-" + oracleVersion(s)

	build = s.Compiler.Name
	if opts := oracleOptions(s); opts != "" {
		build += "-" + opts
	}
	out[2] = s.Arch + "/" + s.Name + "/" + oracleVersion(s) + "/" + build

	mpiName, mpiVer := "serial", "none"
	s.Traverse(func(n *spec.Spec) bool {
		if n != s && isMPI(n.Name) {
			mpiName, mpiVer = n.Name, oracleVersion(n)
			return false
		}
		return true
	})
	out[3] = oracleCompDir(s) + "/" + mpiName + "/" + mpiVer + "/" + s.Name + "/" + oracleVersion(s)
	return out
}

// oracleModule renders the module file path and body of kind k.
func oracleModule(k modules.Kind, s *spec.Spec, prefix string, isMPI func(string) bool) (string, string) {
	v, _ := s.ConcreteVersion()
	var b strings.Builder
	switch k {
	case modules.KindDotkit, modules.KindTCL:
		sub := "dotkit"
		if k == modules.KindTCL {
			sub = "modules"
		}
		path := fmt.Sprintf("/spack/share/%s/%s-%s-%s-%s-%s", sub, s.Name, v, s.Arch, oracleCompDir(s), s.DAGHash())
		if k == modules.KindDotkit {
			fmt.Fprintf(&b, "#c spack\n")
			fmt.Fprintf(&b, "#d %s @%s (%s)\n", s.Name, v, s.Compiler)
			fmt.Fprintf(&b, "#h Spec: %s\n", s.String())
			for _, ev := range modules.EnvPrefixVars {
				fmt.Fprintf(&b, "dk_alter %s %s%s\n", ev.Var, prefix, ev.Subdir)
			}
			return path, b.String()
		}
		b.WriteString("#%Module1.0\n")
		fmt.Fprintf(&b, "## Spack-generated module for %s@%s\n", s.Name, v)
		fmt.Fprintf(&b, "proc ModulesHelp { } {\n    puts stderr \"%s\"\n}\n", s.String())
		fmt.Fprintf(&b, "module-whatis \"%s@%s built with %s\"\n", s.Name, v, s.Compiler)
		for _, ev := range modules.EnvPrefixVars {
			fmt.Fprintf(&b, "prepend-path %s %s%s\n", ev.Var, prefix, ev.Subdir)
		}
		return path, b.String()
	}
	var p strings.Builder
	p.WriteString("/spack/share/lmod/")
	p.WriteString(s.Arch)
	if s.Compiler.IsZero() {
		p.WriteString("/Core")
	} else {
		cv, _ := s.Compiler.Versions.Concrete()
		fmt.Fprintf(&p, "/%s/%s", s.Compiler.Name, cv)
	}
	s.Traverse(func(n *spec.Spec) bool {
		if n != s && isMPI(n.Name) {
			mv, _ := n.ConcreteVersion()
			fmt.Fprintf(&p, "/%s/%s", n.Name, mv)
			return false
		}
		return true
	})
	fmt.Fprintf(&p, "/%s/%s.lua", s.Name, v)
	fmt.Fprintf(&b, "-- Spack-generated Lmod module for %s@%s\n", s.Name, v)
	fmt.Fprintf(&b, "whatis(\"Name: %s\")\n", s.Name)
	fmt.Fprintf(&b, "whatis(\"Version: %s\")\n", v)
	fmt.Fprintf(&b, "whatis(\"Spec: %s\")\n", s.String())
	for _, ev := range modules.EnvPrefixVars {
		fmt.Fprintf(&b, "prepend_path(\"%s\", \"%s%s\")\n", ev.Var, prefix, ev.Subdir)
	}
	fmt.Fprintf(&b, "family(\"%s\")\n", s.Name)
	return p.String(), b.String()
}

// oracleExpand substitutes every §4.3.1 placeholder; isMPI may be nil.
func oracleExpand(tmpl string, s *spec.Spec, isMPI func(string) bool) string {
	v, _ := s.ConcreteVersion()
	mpiName, mpiVer := "serial", "none"
	if isMPI != nil {
		s.Traverse(func(n *spec.Spec) bool {
			if n != s && isMPI(n.Name) {
				mpiName = n.Name
				if nv, ok := n.ConcreteVersion(); ok {
					mpiVer = nv.String()
				}
				return false
			}
			return true
		})
	}
	return strings.NewReplacer(
		"${PACKAGE}", s.Name,
		"${VERSION}", v.String(),
		"${COMPILER}", s.Compiler.Name,
		"${COMP_VERSION}", s.Compiler.Versions.String(),
		"${MPINAME}", mpiName,
		"${MPIVERSION}", mpiVer,
		"${ARCH}", s.Arch,
		"${HASH}", s.DAGHash(),
	).Replace(tmpl)
}

const namingTemplate = "/opt/${ARCH}/${COMPILER}-${COMP_VERSION}/${MPINAME}-${MPIVERSION}/${PACKAGE}-${VERSION}-${HASH}"

// checkNaming compares every rendering of every distinct node of roots
// with the oracles.
func checkNaming(t *testing.T, roots []*spec.Spec, path *repo.Path) int {
	t.Helper()
	isMPI := func(name string) bool {
		def, _, ok := path.Get(name)
		return ok && def.ProvidesVirtualName("mpi")
	}
	layouts := [4]store.Layout{store.SpackLayout{}, store.LLNLLayout{}, store.ORNLLayout{}, store.TACCLayout{IsMPI: isMPI}}
	fs := simfs.New(simfs.TempFS)
	var gens []*modules.Generator
	for _, k := range []modules.Kind{modules.KindDotkit, modules.KindTCL, modules.KindLmod} {
		gens = append(gens, &modules.Generator{FS: fs, Root: "/spack/share", Kind: k, IsMPI: isMPI})
	}
	seen := make(map[string]bool)
	for _, root := range roots {
		for _, n := range root.Nodes() {
			if seen[n.FullHash()] {
				continue
			}
			seen[n.FullHash()] = true
			want := oracleLayouts(n, isMPI)
			for i, l := range layouts {
				if got := l.RelPath(n); got != want[i] {
					t.Fatalf("%s layout of %s: got %q, want %q", l.Name(), n.Name, got, want[i])
				}
			}
			prefix := "/spack/opt/" + want[0]
			for _, g := range gens {
				wantPath, wantBody := oracleModule(g.Kind, n, prefix, isMPI)
				if got := g.FileName(n); got != wantPath {
					t.Fatalf("kind %d file name of %s: got %q, want %q", g.Kind, n.Name, got, wantPath)
				}
				p, err := g.Generate(n, prefix)
				if err != nil {
					t.Fatal(err)
				}
				if body, _ := fs.ReadFile(p); string(body) != wantBody {
					t.Fatalf("kind %d body of %s:\n%s\nwant:\n%s", g.Kind, n.Name, body, wantBody)
				}
			}
			for _, m := range []func(string) bool{isMPI, nil} {
				if got, want := views.ExpandTemplate(namingTemplate, n, m), oracleExpand(namingTemplate, n, m); got != want {
					t.Fatalf("view link of %s: got %q, want %q", n.Name, got, want)
				}
			}
		}
	}
	return len(seen)
}

// TestNamingMatchesOracles: every layout path, module path and body, and
// view link of every node of the 36 ARES configurations and the 245 Fig. 8
// DAGs is byte-identical to the frozen renderers.
func TestNamingMatchesOracles(t *testing.T) {
	aresPath := repo.NewPath(ares.Repo(), repo.Builtin())
	c := concretize.New(aresPath, config.New(), compiler.LLNLRegistry())
	var roots []*spec.Spec
	for _, abstract := range aresMatrixSpecs() {
		s, err := c.Concretize(abstract)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, s)
	}
	n := checkNaming(t, roots, aresPath)

	path := fig8Path()
	c = concretize.New(path, config.New(), compiler.LLNLRegistry())
	roots = roots[:0]
	for _, name := range path.Names() {
		s, err := c.Concretize(spec.New(name))
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, s)
	}
	n += checkNaming(t, roots, path)
	t.Logf("checked %d distinct nodes", n)
	if n < 300 {
		t.Fatalf("checked %d distinct nodes; the corpus shrank", n)
	}
}

// TestNamingAllocs bounds the allocations of the two renderings every
// install runs per node: the store prefix and the module file name. The
// bounds are what the per-layer renderers cost (7 and 8);
// the shared byte-slice renderers must not cost more.
func TestNamingAllocs(t *testing.T) {
	c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	root, err := c.Concretize(aresMatrixSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	g := &modules.Generator{FS: fs, Root: "/spack/share", Kind: modules.KindDotkit}
	prefix := testing.AllocsPerRun(100, func() { st.Prefix(root) })
	file := testing.AllocsPerRun(100, func() { g.FileName(root) })
	t.Logf("allocs: Store.Prefix %v, Generator.FileName %v", prefix, file)
	if prefix > 7 || file > 8 {
		t.Errorf("allocs: Store.Prefix %v (bound 7), Generator.FileName %v (bound 8)", prefix, file)
	}
}
