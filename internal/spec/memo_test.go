package spec_test

import (
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// checkMemo asserts that every node's (possibly memoized) FullHash equals
// a fresh recompute, and returns the root's hash.
func checkMemo(t *testing.T, what string, s *spec.Spec) string {
	t.Helper()
	for _, n := range s.Nodes() {
		if got, want := n.FullHash(), spec.FreshFullHash(n); got != want {
			t.Fatalf("%s: node %s FullHash %s, fresh recompute %s", what, n.Name, got, want)
		}
	}
	return s.FullHash()
}

// concretizations returns every Fig. 8 package and every ARES Table 3
// configuration, concretized.
func concretizations(t *testing.T) []*spec.Spec {
	t.Helper()
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	fig8 := repo.NewPath(ares.Repo(), synth, repo.Builtin())
	c := concretize.New(fig8, config.New(), compiler.LLNLRegistry())
	var out []*spec.Spec
	for _, name := range fig8.Names() {
		s, err := c.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("concretize %s: %v", name, err)
		}
		out = append(out, s)
	}
	aresPath := repo.NewPath(ares.Repo(), repo.Builtin())
	c = concretize.New(aresPath, config.New(), compiler.LLNLRegistry())
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			s, err := c.Concretize(syntax.MustParse(ares.SpecFor(cell, cfg)))
			if err != nil {
				t.Fatalf("concretize %s: %v", ares.SpecFor(cell, cfg), err)
			}
			out = append(out, s)
		}
	}
	return out
}

// TestFullHashMemoMatchesRecompute: for every Fig. 8 and ARES
// concretization, every node's memoized hash equals a fresh recompute,
// and stays so through the DAG derivations callers use: Clone, a JSON
// round trip, and SpliceDep (whose cone must change hash).
func TestFullHashMemoMatchesRecompute(t *testing.T) {
	for _, s := range concretizations(t) {
		h := checkMemo(t, s.Name, s)
		if again := checkMemo(t, s.Name+" (memoized)", s); again != h {
			t.Fatalf("%s: hash moved from %s to %s between calls", s.Name, h, again)
		}
		if got := checkMemo(t, s.Name+" clone", s.Clone()); got != h {
			t.Errorf("%s: clone hash %s, want %s", s.Name, got, h)
		}
		data := syntax.EncodeJSON(s)
		back, err := syntax.DecodeJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := checkMemo(t, s.Name+" JSON round trip", back); got != h {
			t.Errorf("%s: JSON round-trip hash %s, want %s", s.Name, got, h)
		}

		deps := s.DirectDeps()
		if len(deps) == 0 {
			continue
		}
		target := deps[0]
		repl := target.Clone()
		repl.SetVariant("memo-test", true)
		spliced, err := spec.SpliceDep(s, target.Name, repl)
		if err != nil {
			t.Fatalf("%s: splice %s: %v", s.Name, target.Name, err)
		}
		if got := checkMemo(t, s.Name+" spliced", spliced); got == h {
			t.Errorf("%s: splicing %s kept the root hash %s", s.Name, target.Name, h)
		}
		if got := s.FullHash(); got != h {
			t.Errorf("%s: splice changed the input's hash to %s", s.Name, got)
		}
	}
}

// TestMutatorsDropHashMemo: each exported mutator, applied to a hashed
// concrete node, changes that node's hash to the fresh recompute, which
// reads no memoized canonical line.
func TestMutatorsDropHashMemo(t *testing.T) {
	const expr = "callpath@1.2%gcc@4.9.2=linux-x86_64 ^mpich@3.1.4%gcc@4.9.2=linux-x86_64"
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, s *spec.Spec)
	}{
		{"SetVariant", func(t *testing.T, s *spec.Spec) { s.SetVariant("debug", true) }},
		{"SetDepType", func(t *testing.T, s *spec.Spec) { s.SetDepType("mpich", spec.DepBuild) }},
		{"AddDepTyped", func(t *testing.T, s *spec.Spec) {
			d := syntax.MustParse("libelf@0.8.13%gcc@4.9.2=linux-x86_64")
			if err := s.AddDepTyped(d, spec.DepLink); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetDep", func(t *testing.T, s *spec.Spec) {
			s.SetDep(syntax.MustParse("libelf@0.8.13%gcc@4.9.2=linux-x86_64"), spec.DepBuild)
		}},
		{"SetDep replacing", func(t *testing.T, s *spec.Spec) {
			s.SetDep(syntax.MustParse("mpich@3.0.4%gcc@4.9.2=linux-x86_64"), spec.DepDefault)
		}},
		{"RemoveDep", func(t *testing.T, s *spec.Spec) { s.RemoveDep("mpich") }},
		{"Constrain", func(t *testing.T, s *spec.Spec) {
			if err := s.Constrain(syntax.MustParse("callpath ^libelf@0.8.13%gcc@4.9.2=linux-x86_64")); err != nil {
				t.Fatal(err)
			}
		}},
		{"ConstrainChanged", func(t *testing.T, s *spec.Spec) {
			changed, err := s.ConstrainChanged(syntax.MustParse("callpath+debug"))
			if err != nil || !changed {
				t.Fatalf("ConstrainChanged = %v, %v", changed, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := syntax.MustParse(expr)
			if !s.Concrete() {
				t.Fatalf("%s is not concrete", expr)
			}
			before := s.FullHash()
			tc.mutate(t, s)
			after := s.FullHash()
			if after == before {
				t.Errorf("hash stayed %s after %s", before, tc.name)
			}
			if want := spec.FreshFullHash(s); after != want {
				t.Errorf("hash %s after %s, fresh recompute %s", after, tc.name, want)
			}
		})
	}
}

// TestAbstractHashNotMemoized: an abstract spec is rehashed on every call,
// so direct field edits while it is still being built are seen.
func TestAbstractHashNotMemoized(t *testing.T) {
	s := syntax.MustParse("libelf%gcc")
	before := s.FullHash()
	s.Arch = "linux-x86_64"
	if after := s.FullHash(); after == before || after != spec.FreshFullHash(s) {
		t.Errorf("abstract spec hash %s -> %s, fresh %s", before, after, spec.FreshFullHash(s))
	}
}

// TestConcurrentFullHash: builder workers hash shared nodes of one DAG at
// once; under -race the memo must be safe, and all agree.
func TestConcurrentFullHash(t *testing.T) {
	path := repo.NewPath(ares.Repo(), repo.Builtin())
	c := concretize.New(path, config.New(), compiler.LLNLRegistry())
	cell := ares.Matrix()[0]
	s, err := c.Concretize(syntax.MustParse(ares.SpecFor(cell, cell.Configs[0])))
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.Nodes()
	want := make([]string, len(nodes))
	for i, n := range nodes {
		want[i] = spec.FreshFullHash(n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range nodes {
				if got := n.FullHash(); got != want[i] {
					t.Errorf("node %s: FullHash %s, want %s", n.Name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
