// Soundness of concretizer results, checked directly on each output DAG
// rather than against recorded hashes: the Fig. 8 sweep, the ARES matrix
// and every root of a 1000-package synthetic repository.
package repro

import (
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// checkSound reports every way out fails to be a sound concretization of
// abstract over path:
//   - out satisfies abstract;
//   - each node is concrete and names a package (not a virtual);
//   - the DAG holds one node per name;
//   - every dependency directive active on a node is met by a direct
//     dependency: the named package satisfying the directive's
//     constraint, or for a virtual, a provider whose provides directive
//     is active and compatible with it;
//   - every node's hash equals one computed from scratch, on a copy
//     decoded from the node's JSON encoding.
func checkSound(t *testing.T, path *repo.Path, abstract, out *spec.Spec) {
	t.Helper()
	if !out.Satisfies(abstract) {
		t.Errorf("%s: result does not satisfy its input:\n%s", abstract, out.TreeString())
	}
	byName := make(map[string]*spec.Spec)
	var visit func(n *spec.Spec)
	visit = func(n *spec.Spec) {
		if seen, ok := byName[n.Name]; ok {
			if seen != n {
				t.Errorf("%s: two nodes named %s", abstract, n.Name)
			}
			return
		}
		byName[n.Name] = n
		for _, d := range n.DirectDeps() {
			visit(d)
		}
	}
	visit(out)
	fresh, err := syntax.DecodeJSON(syntax.EncodeJSON(out))
	if err != nil {
		t.Fatalf("%s: JSON round trip: %v", abstract, err)
	}
	for _, f := range fresh.Nodes() {
		if n := byName[f.Name]; n == nil {
			t.Errorf("%s: node %s is lost in the JSON round trip", abstract, f.Name)
		} else if n.FullHash() != f.FullHash() {
			t.Errorf("%s: node %s hashes to %s, from scratch %s", abstract, f.Name, n.FullHash(), f.FullHash())
		}
	}
	for _, n := range byName {
		if !n.NodeConcrete() {
			t.Errorf("%s: node %s is not concrete", abstract, n)
		}
		def, _, ok := path.Get(n.Name)
		if !ok {
			t.Errorf("%s: node %s names no package", abstract, n.Name)
			continue
		}
		for i := range def.Dependencies {
			d := &def.Dependencies[i]
			if !d.ActiveFor(n) {
				continue
			}
			if !path.IsVirtual(d.Constraint.Name) {
				if dep := n.DirectDep(d.Constraint.Name); dep == nil || !dep.Satisfies(d.Constraint) {
					t.Errorf("%s: %s's dependency %s is not met by %v", abstract, n.Name, d.Constraint, dep)
				}
				continue
			}
			if !providedBy(path, n, d.Constraint) {
				t.Errorf("%s: no direct dependency of %s provides %s", abstract, n.Name, d.Constraint)
			}
		}
	}
}

// providedBy reports whether a direct dependency of n provides the virtual
// constraint v under its own configuration.
func providedBy(path *repo.Path, n, v *spec.Spec) bool {
	for _, dep := range n.DirectDeps() {
		def, _, ok := path.Get(dep.Name)
		if !ok {
			continue
		}
		for _, pv := range def.ProvidesFor(dep) {
			if pv.Name == v.Name && pv.Compatible(v) {
				return true
			}
		}
	}
	return false
}

func TestSoundFig8Sweep(t *testing.T) {
	path := fig8Path()
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	for _, name := range path.Names() {
		abstract := spec.New(name)
		out, err := c.Concretize(abstract)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSound(t, path, abstract, out)
	}
}

func TestSoundARESMatrix(t *testing.T) {
	path := repo.NewPath(ares.Repo(), repo.Builtin())
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	for _, abstract := range aresMatrixSpecs() {
		out, err := c.Concretize(abstract)
		if err != nil {
			t.Fatalf("%s: %v", abstract, err)
		}
		checkSound(t, path, abstract, out)
	}
}

// TestSoundSynthesize1000 concretizes every root of a 1000-package
// synthetic repository, whose chains reach deeper than any Fig. 8 DAG.
func TestSoundSynthesize1000(t *testing.T) {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 1000, 2015)
	path := repo.NewPath(synth)
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	for _, name := range path.Names() {
		abstract := spec.New(name)
		out, err := c.Concretize(abstract)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSound(t, path, abstract, out)
	}
}
