// Package modules generates environment-module files for installed
// packages (SC'15 §3.5.4): dotkit files (the LC legacy format), TCL
// Environment Modules files, and Lmod hierarchies of Lua files. Spack
// packages do not need LD_LIBRARY_PATH to run — RPATHs handle linking —
// but the generated files still set it for build systems and non-RPATH
// dependents, along with PATH, MANPATH and PKG_CONFIG_PATH.
package modules

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/buildenv"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/txn"
)

// EnvPrefixVars are the path-like variables a module prepends for a package
// prefix.
var EnvPrefixVars = []struct {
	Var    string
	Subdir string
}{
	{"PATH", "/bin"},
	{"MANPATH", "/share/man"},
	{"LD_LIBRARY_PATH", "/lib"},
	{"PKG_CONFIG_PATH", "/lib/pkgconfig"},
	{"CMAKE_PREFIX_PATH", ""},
}

// Kind selects a module flavor.
type Kind int

const (
	// KindDotkit generates dotkit files under <root>/dotkit.
	KindDotkit Kind = iota
	// KindTCL generates TCL module files under <root>/modules.
	KindTCL
	// KindLmod generates Lua module files in an Lmod software hierarchy
	// under <root>/lmod (§3.5.4: "Future versions of Spack may also allow
	// the creation of Lmod hierarchies"), keyed by the providers a
	// package was built with:
	//
	//	<root>/lmod/<arch>/Core/<pkg>/<version>.lua             (no compiler)
	//	<root>/lmod/<arch>/<compiler>/<cver>/<pkg>/<version>.lua
	//	<root>/lmod/<arch>/<compiler>/<cver>/<mpi>/<mver>/<pkg>/<version>.lua
	//
	// so that `module load gcc/4.9.2` unlocks the gcc-built layer and
	// loading an MPI unlocks the MPI layer — Lmod's "software hierarchy"
	// answer to the matrix problem [27, 28].
	KindLmod
)

// Generator writes module files for installed specs onto a filesystem.
type Generator struct {
	FS   *simfs.FS
	Root string
	Kind Kind
	// IsMPI classifies MPI providers, which open the Lmod hierarchy's MPI
	// level. Only KindLmod reads it.
	IsMPI func(name string) bool
}

// FileName returns the module file path for a spec: the human-readable
// name a user types after `use` or `module load`, or for KindLmod its
// place in the hierarchy.
func (g *Generator) FileName(s *spec.Spec) string {
	v, _ := s.ConcreteVersion()
	var buf [192]byte
	b := append(buf[:0], g.Root...)
	if g.Kind == KindLmod {
		b = append(append(b, "/lmod/"...), s.Arch...)
		if s.Compiler.IsZero() {
			b = append(b, "/Core"...)
		} else {
			b = s.Compiler.AppendDir(append(b, '/'), '/')
		}
		if mpi := s.FirstDep(g.IsMPI); mpi != nil {
			mv, _ := mpi.ConcreteVersion()
			b = append(append(b, '/'), mpi.Name...)
			b = append(append(b, '/'), mv.String()...)
		}
		b = append(append(b, '/'), s.Name...)
		b = append(append(b, '/'), v.String()...)
		return string(append(b, ".lua"...))
	}
	if g.Kind == KindTCL {
		b = append(b, "/modules/"...)
	} else {
		b = append(b, "/dotkit/"...)
	}
	b = append(b, s.Name...)
	b = append(append(b, '-'), v.String()...)
	b = append(append(b, '-'), s.Arch...)
	b = s.Compiler.AppendDir(append(b, '-'), '-')
	return string(append(append(b, '-'), s.DAGHash()...))
}

// body renders the module file for one installed spec in the
// generator's flavor: a dotkit file (LC's dotkit system [6]), a TCL
// Environment Modules file [19, 20], or an Lmod Lua file.
func (g *Generator) body(s *spec.Spec, prefix string) []byte {
	var b bytes.Buffer
	v, _ := s.ConcreteVersion()
	prepend := "dk_alter %s %s%s\n"
	switch g.Kind {
	case KindTCL:
		b.WriteString("#%Module1.0\n")
		fmt.Fprintf(&b, "## Spack-generated module for %s@%s\n", s.Name, v)
		fmt.Fprintf(&b, "proc ModulesHelp { } {\n    puts stderr \"%s\"\n}\n", s.String())
		fmt.Fprintf(&b, "module-whatis \"%s@%s built with %s\"\n", s.Name, v, s.Compiler)
		prepend = "prepend-path %s %s%s\n"
	case KindLmod:
		fmt.Fprintf(&b, "-- Spack-generated Lmod module for %s@%s\n", s.Name, v)
		fmt.Fprintf(&b, "whatis(\"Name: %s\")\n", s.Name)
		fmt.Fprintf(&b, "whatis(\"Version: %s\")\n", v)
		fmt.Fprintf(&b, "whatis(\"Spec: %s\")\n", s.String())
		prepend = "prepend_path(\"%s\", \"%s%s\")\n"
	default:
		b.WriteString("#c spack\n")
		fmt.Fprintf(&b, "#d %s @%s (%s)\n", s.Name, v, s.Compiler)
		fmt.Fprintf(&b, "#h Spec: %s\n", s.String())
	}
	for _, ev := range EnvPrefixVars {
		fmt.Fprintf(&b, prepend, ev.Var, prefix, ev.Subdir)
	}
	if g.Kind == KindLmod {
		// The hierarchy's family declaration lets Lmod swap
		// implementations.
		fmt.Fprintf(&b, "family(\"%s\")\n", s.Name)
	}
	return b.Bytes()
}

// Generate writes the module file for one installed spec and returns its
// path.
func (g *Generator) Generate(s *spec.Spec, prefix string) (string, error) {
	path := g.FileName(s)
	if err := g.FS.MkdirAll(path[:strings.LastIndexByte(path, '/')]); err != nil {
		return "", err
	}
	if err := g.FS.WriteFile(path, g.body(s, prefix)); err != nil {
		return "", err
	}
	return path, nil
}

// GenerateAll writes module files for every record in a store (snapshot
// taken through the Querier seam), returning the paths sorted.
func (g *Generator) GenerateAll(st store.Querier) ([]string, error) {
	var out []string
	for _, r := range st.Select(func(r *store.Record) bool { return !r.Spec.External }) {
		p, err := g.Generate(r.Spec, r.Prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes the module file for a spec (used on uninstall).
func (g *Generator) Remove(s *spec.Spec) error {
	return g.FS.Remove(g.FileName(s))
}

// StageGenerate renders the module file for one installed spec and stages
// its (atomic) write into a transaction, returning the eventual path.
// Nothing touches the filesystem until the transaction commits.
func (g *Generator) StageGenerate(t *txn.Txn, s *spec.Spec, prefix string) string {
	path := g.FileName(s)
	t.StageWriteFile(path, g.body(s, prefix))
	return path
}

// StageRemove stages deletion of a spec's module file into a transaction
// (a missing file is a no-op, so replay after a crash converges).
func (g *Generator) StageRemove(t *txn.Txn, s *spec.Spec) {
	t.StageRemoveFile(g.FileName(s))
}

// ApplyDotkit simulates `use <module>`: it parses a dotkit file's
// dk_alter lines and prepends the directories onto the environment — the
// runtime-setup step users perform after installation (§3.5.4).
func ApplyDotkit(content string, env *buildenv.Environment) error {
	for _, line := range strings.Split(content, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "dk_alter" {
			continue
		}
		env.AppendPath(fields[1], fields[2])
	}
	return nil
}

// ApplyTCL simulates `module load`: it applies prepend-path commands from
// a TCL module file to the environment.
func ApplyTCL(content string, env *buildenv.Environment) error {
	for _, line := range strings.Split(content, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "prepend-path" {
			continue
		}
		env.AppendPath(fields[1], fields[2])
	}
	return nil
}
