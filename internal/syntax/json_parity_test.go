package syntax_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// solvedDAGs concretizes every package of the 245-package Fig. 8
// repository and the 36 ARES Table 3 configurations.
func solvedDAGs(t *testing.T) []*spec.Spec {
	t.Helper()
	var out []*spec.Spec
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	fig8 := repo.NewPath(ares.Repo(), synth, repo.Builtin())
	c := concretize.New(fig8, config.New(), compiler.LLNLRegistry())
	for _, name := range fig8.Names() {
		s, err := c.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("fig8 %s: %v", name, err)
		}
		out = append(out, s)
	}
	c = concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	for _, e := range ares.MatrixEntries() {
		s, err := c.Concretize(e.Abstract)
		if err != nil {
			t.Fatalf("ares %s: %v", ares.SpecFor(e.Cell, e.Config), err)
		}
		out = append(out, s)
	}
	return out
}

// decorate returns a copy of s with what solved DAGs rarely carry: every
// third node external (some without a path), namespaces, non-default edge
// types, and strings that need JSON escaping.
func decorate(s *spec.Spec) *spec.Spec {
	c := s.Clone()
	for i, n := range c.Nodes() {
		switch i % 3 {
		case 0:
			n.External = true
			if i%2 == 0 {
				n.Path = fmt.Sprintf("/opt/vendor <%d> & \"%s\"", i, n.Name)
			}
		case 1:
			n.Namespace = "site\\ns"
			n.Arch = "linux-x86_64é"
		}
		for j, d := range n.DirectDeps() {
			switch j % 3 {
			case 0:
				n.SetDepType(d.Name, spec.DepBuild)
			case 1:
				n.SetDepType(d.Name, spec.DepLink|spec.DepRun)
			}
		}
	}
	return c
}

// TestEncodeJSONMatchesOracle encodes every node's sub-DAG of every Fig. 8
// and ARES DAG, as solved and decorated, and compares the bytes with the
// reflection oracle.
func TestEncodeJSONMatchesOracle(t *testing.T) {
	encodings := 0
	sections := map[string]int{}
	check := func(n *spec.Spec) {
		got := syntax.EncodeJSON(n)
		want, err := syntax.EncodeJSONOracle(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeJSON differs from the oracle\ngot:\n%s\nwant:\n%s", n.Name, got, want)
		}
		for _, key := range []string{`"edgetypes"`, `"external"`, `"namespace"`, `\u003c`} {
			if bytes.Contains(got, []byte(key)) {
				sections[key]++
			}
		}
		encodings++
	}
	for _, s := range solvedDAGs(t) {
		for _, n := range s.Nodes() {
			check(n)
		}
		d := decorate(s)
		for _, n := range d.Nodes() {
			check(n)
		}
	}
	if encodings < 3000 {
		t.Errorf("only %d encodings compared", encodings)
	}
	for _, key := range []string{`"edgetypes"`, `"external"`, `"namespace"`, `\u003c`} {
		if sections[key] == 0 {
			t.Errorf("no encoding exercised %s", key)
		}
	}
	t.Logf("%d encodings match the oracle; sections %v", encodings, sections)
}

// jsonSeeds are spec strings from the syntax table tests.
var jsonSeeds = []string{
	"mpileaks",
	"mpileaks@1.1.2",
	"mpileaks@1.1.2%gcc",
	"mpileaks@1.1.2%intel@14.1+debug",
	"mpileaks@1.1.2=bgq",
	"mpileaks@1.2:1.4%gcc@4.7.5~debug=bgq ^callpath@1.1%gcc@4.7.2 ^openmpi@1.4.7",
	"a@1.2,2.0:3.0 ^b~shared+static ^c=linux-ppc64",
	"mpileaks@2.3%gcc@4.9.2+debug=linux-x86_64 ^callpath@1.1%gcc@4.9.2=linux-x86_64",
	"py-numpy@1.9:%clang@3.4:3.6 ^mpich ^zlib",
}

// FuzzSpecJSON feeds arbitrary bytes to DecodeJSON. It must never panic,
// and any DAG it accepts must re-encode to the oracle's bytes and decode
// again to the same FullHash.
func FuzzSpecJSON(f *testing.F) {
	for _, expr := range jsonSeeds {
		s := syntax.MustParse(expr)
		for _, n := range []*spec.Spec{s, decorate(s)} {
			data := syntax.EncodeJSON(n)
			f.Add(data)
		}
	}
	f.Add([]byte(`{"root":"x","nodes":{"x":"x@1.0"},"edges":{"x":["x"]}}`))
	f.Add([]byte(`{"root":"a","nodes":{"a":"a","b":"b"},"edges":{"a":["b"]},"edgetypes":{"a":{"b":"run"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := syntax.DecodeJSON(data)
		if err != nil {
			return
		}
		got := syntax.EncodeJSON(s)
		want, err := syntax.EncodeJSONOracle(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeJSON differs from the oracle\ngot:\n%s\nwant:\n%s", got, want)
		}
		back, err := syntax.DecodeJSON(got)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v\n%s", err, got)
		}
		if back.FullHash() != s.FullHash() {
			t.Fatalf("FullHash moved across the round trip:\n%s", got)
		}
	})
}
