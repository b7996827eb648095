package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
)

// renderDirectiveSpec writes every field of every node of a directive's
// spec, edges and edge types included.
func renderDirectiveSpec(b *strings.Builder, s *spec.Spec) {
	if s == nil {
		b.WriteString(" <nil>")
		return
	}
	for _, n := range s.Nodes() {
		fmt.Fprintf(b, " {%q %q %q %v %q %q %v %q [", n.Name, n.Versions, n.Compiler,
			n.Variants, n.Arch, n.Namespace, n.External, n.Path)
		n.EachDep(func(d *spec.Spec, t spec.DepType) { fmt.Fprintf(b, " %s:%s", d.Name, t) })
		b.WriteString("]}")
	}
}

// renderDefinitions renders the dependency and provides directives of every
// package visible along path.
func renderDefinitions(path *repo.Path) string {
	var b strings.Builder
	for _, name := range path.Names() {
		def, _, _ := path.Get(name)
		for _, d := range def.Dependencies {
			fmt.Fprintf(&b, "%s depends_on build_only=%v", name, d.BuildOnly)
			renderDirectiveSpec(&b, d.Constraint)
			b.WriteString(" when")
			renderDirectiveSpec(&b, d.When)
			b.WriteByte('\n')
		}
		for _, pr := range def.Provides {
			fmt.Fprintf(&b, "%s provides", name)
			renderDirectiveSpec(&b, pr.Virtual)
			b.WriteString(" when")
			renderDirectiveSpec(&b, pr.When)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestConcretizeAllLeavesDefinitionsUnchanged: the engine reads directive
// constraints in place, cloning only what it attaches to a DAG, so no solve
// may write to a package definition. Parallel solves over the Fig. 8
// repository and the ARES matrix, greedy and with reuse, leave every
// dependency and provides directive byte-identical. Under -race it also
// checks that ConcretizeAll's workers only read the shared directives.
func TestConcretizeAllLeavesDefinitionsUnchanged(t *testing.T) {
	fig8 := fig8Path()
	aresPath := repo.NewPath(ares.Repo(), repo.Builtin())
	before := map[string]string{"fig8": renderDefinitions(fig8), "ares": renderDefinitions(aresPath)}

	c := concretize.New(fig8, config.New(), compiler.LLNLRegistry())
	c.Parallelism = 4
	var roots []*spec.Spec
	for _, name := range fig8.Names() {
		roots = append(roots, spec.New(name))
	}
	if _, err := c.ConcretizeAll(roots); err != nil {
		t.Fatal(err)
	}

	var matrix []*spec.Spec
	for _, e := range ares.MatrixEntries() {
		matrix = append(matrix, e.Abstract)
	}
	cold := concretize.New(aresPath, config.New(), compiler.LLNLRegistry())
	cold.Parallelism = 4
	greedy, err := cold.ConcretizeAll(matrix)
	if err != nil {
		t.Fatal(err)
	}
	src := &memSource{fp: "ares-full", cands: map[string]*spec.Spec{}}
	for _, out := range greedy {
		src.cands[out.FullHash()] = out
	}
	warm := concretize.New(aresPath, config.New(), compiler.LLNLRegistry())
	warm.Parallelism = 4
	warm.Reuse = src
	if _, err := warm.ConcretizeAll(matrix); err != nil {
		t.Fatal(err)
	}

	after := map[string]string{"fig8": renderDefinitions(fig8), "ares": renderDefinitions(aresPath)}
	for _, name := range []string{"fig8", "ares"} {
		if before[name] == "" {
			t.Errorf("%s: no directives rendered", name)
		}
		if after[name] != before[name] {
			t.Errorf("%s: a solve changed a package definition:\n%s", name, firstDiff(before[name], after[name]))
		}
	}
}

// firstDiff returns the first line where two renderings differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			other := "<missing>"
			if i < len(bl) {
				other = bl[i]
			}
			return fmt.Sprintf("before: %s\nafter:  %s", al[i], other)
		}
	}
	return fmt.Sprintf("%d lines before, %d after", len(al), len(bl))
}
