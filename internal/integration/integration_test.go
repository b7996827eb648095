// Package integration exercises whole-system workflows across module
// boundaries: the paper's end-to-end story (concretize → fetch → build →
// store → modules → views → extensions), database persistence across
// "processes", the gperftools combinatorial-naming use case (§4.1), and
// property-based checks over randomly generated spec expressions.
package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/modules"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

// TestFullLifecycle walks one package through its whole life: install,
// query, module, persistence, reopen, uninstall.
func TestFullLifecycle(t *testing.T) {
	s := core.MustNew()
	res, err := s.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d", len(res.Reports))
	}

	// Persist, then simulate a new process: a fresh store handle on the
	// same filesystem.
	if err := s.Store.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(s.FS, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("reopened store has %d records", st2.Len())
	}
	recs := st2.Find(syntax.MustParse("libdwarf"))
	if len(recs) != 1 {
		t.Fatalf("find after reopen = %d", len(recs))
	}
	// Provenance readable and reconcretizable.
	provStr, err := st2.ReadProvenance(recs[0].Prefix)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := syntax.Parse(provStr)
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Name != "libdwarf" {
		t.Errorf("provenance = %q", provStr)
	}

	// Dependent protection works through the reopened handle.
	libelf := recs[0].Spec.Dep("libelf")
	if err := st2.Uninstall(libelf, false); err == nil {
		t.Error("dependent check lost across persistence")
	}
}

// TestGperftoolsCombinatorialNaming reproduces §4.1: central installs of
// gperftools across compilers and compiler versions coexist, each in its
// own prefix, from one package file.
func TestGperftoolsCombinatorialNaming(t *testing.T) {
	s := core.MustNew()
	configs := []string{
		"gperftools@2.4 %gcc@4.7.3",
		"gperftools@2.4 %gcc@4.9.2",
		"gperftools@2.4 %intel@14.0.1",
		"gperftools@2.4 %intel@15.0.2",
		"gperftools@2.3 %gcc@4.9.2",
		"gperftools@2.4 %clang",
	}
	prefixes := make(map[string]bool)
	for _, cfg := range configs {
		res, err := s.Install(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		prefixes[res.Report("gperftools").Prefix] = true
	}
	if len(prefixes) != len(configs) {
		t.Errorf("%d unique prefixes for %d configs", len(prefixes), len(configs))
	}
	recs, _ := s.Find("gperftools")
	if len(recs) != len(configs) {
		t.Errorf("find = %d", len(recs))
	}
	// Compiler-constrained queries slice the set.
	gccOnly, _ := s.Find("gperftools%gcc")
	if len(gccOnly) != 3 {
		t.Errorf("gcc builds = %d, want 3", len(gccOnly))
	}
}

// TestModulesViewsExtensionsTogether drives every post-install subsystem
// against one store.
func TestModulesViewsExtensionsTogether(t *testing.T) {
	s := core.MustNew()
	s.Config.Site.AddLinkRule("py-numpy", "/opt/numpy-default")
	if _, err := s.Install("py-numpy"); err != nil {
		t.Fatal(err)
	}
	// View link exists.
	if _, err := s.FS.Readlink("/opt/numpy-default"); err != nil {
		t.Errorf("view link missing: %v", err)
	}
	// Dotkit modules for every non-external node.
	files, err := s.FS.List("/spack/share/dotkit")
	if err != nil || len(files) == 0 {
		t.Errorf("dotkit files: %v, %v", files, err)
	}
	// Lmod hierarchy generates cleanly on the same store.
	g := &modules.LmodGenerator{FS: s.FS, Root: "/spack/share", IsMPI: s.IsMPI}
	luas, err := g.GenerateAll(s.Store)
	if err != nil || len(luas) != len(files) {
		t.Errorf("lmod files = %d vs dotkit %d (%v)", len(luas), len(files), err)
	}
	// Extension activation against the installed python.
	if err := s.Activate("py-numpy"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deactivate("py-numpy"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInstallsSharedStore: many goroutines installing
// overlapping DAGs into one store, exercising the double-check path in
// Store.Install and the parallel executor together.
func TestConcurrentInstallsSharedStore(t *testing.T) {
	s := core.MustNew(core.WithJobs(4))
	exprs := []string{
		"mpileaks ^mpich", "libdwarf", "dyninst", "callpath ^mpich",
		"mpileaks ^openmpi", "libelf", "boost", "hwloc",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(exprs))
	for _, expr := range exprs {
		wg.Add(1)
		go func(expr string) {
			defer wg.Done()
			if _, err := s.Install(expr); err != nil {
				errs <- fmt.Errorf("%s: %w", expr, err)
			}
		}(expr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Exactly one libelf configuration should exist despite 8 racing DAGs.
	recs, _ := s.Find("libelf")
	if len(recs) != 1 {
		t.Errorf("libelf configurations = %d", len(recs))
	}
}

// randomExpr builds random valid spec expressions over the builtin repo.
func randomExpr(r *rand.Rand) string {
	roots := []string{"mpileaks", "callpath", "dyninst", "libdwarf", "hdf5", "silo",
		"py-numpy", "gerris", "hypre", "samrai", "gperftools"}
	var b strings.Builder
	b.WriteString(roots[r.Intn(len(roots))])
	if r.Intn(3) == 0 {
		b.WriteString([]string{"%gcc", "%gcc@4.7.3", "%intel", "%clang"}[r.Intn(4)])
	}
	if r.Intn(4) == 0 {
		b.WriteString(" ^" + []string{"mpich", "mvapich2", "openmpi"}[r.Intn(3)])
	}
	if r.Intn(4) == 0 {
		b.WriteString(" ^libelf@" + []string{"0.8.12", "0.8.13", "0.8.10"}[r.Intn(3)])
	}
	return b.String()
}

// TestPropertyConcretizationSound: for random abstract specs, the result
// is concrete, satisfies the input, has one node per name, and
// re-concretizing is deterministic.
func TestPropertyConcretizationSound(t *testing.T) {
	s := core.MustNew()
	r := rand.New(rand.NewSource(20150715))
	for i := 0; i < 200; i++ {
		expr := randomExpr(r)
		in, err := syntax.Parse(expr)
		if err != nil {
			t.Fatalf("generator produced bad expr %q: %v", expr, err)
		}
		out, err := s.Concretizer.Concretize(in)
		if err != nil {
			// Some random combinations legitimately conflict (e.g. a
			// libelf pin incompatible with nothing here) — they must fail
			// loudly, not panic; any error is acceptable, silent wrongness
			// is not.
			continue
		}
		if !out.Concrete() {
			t.Errorf("%q: result not concrete", expr)
		}
		if !out.Satisfies(in) {
			t.Errorf("%q: result does not satisfy input", expr)
		}
		names := make(map[string]int)
		seen := make(map[*spec.Spec]bool)
		var walk func(*spec.Spec)
		walk = func(n *spec.Spec) {
			if seen[n] {
				return
			}
			seen[n] = true
			names[n.Name]++
			for _, d := range n.DirectDeps() {
				walk(d)
			}
		}
		walk(out)
		for name, count := range names {
			if count != 1 {
				t.Errorf("%q: package %s appears %d times", expr, name, count)
			}
		}
		again, err := s.Concretizer.Concretize(in)
		if err != nil || again.FullHash() != out.FullHash() {
			t.Errorf("%q: nondeterministic (%v)", expr, err)
		}
	}
}

// TestPropertyInstallAfterConcretize: whatever concretizes also builds.
func TestPropertyInstallAfterConcretize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := core.MustNew()
	r := rand.New(rand.NewSource(42))
	built := 0
	for i := 0; i < 25 && built < 12; i++ {
		expr := randomExpr(r)
		if _, err := s.Concretizer.Concretize(syntax.MustParse(expr)); err != nil {
			continue
		}
		if _, err := s.Install(expr); err != nil {
			t.Errorf("install %q failed after successful concretize: %v", expr, err)
		}
		built++
	}
	if built == 0 {
		t.Fatal("generator produced nothing buildable")
	}
}
