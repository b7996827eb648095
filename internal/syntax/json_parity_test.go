package syntax_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
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
func solvedDAGs(t testing.TB) []*spec.Spec {
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

// TestCompactJSONMatchesIndented: the compact spec JSON the daemon sends
// is the indented encoding with its whitespace removed, byte for byte,
// for every node's sub-DAG of every Fig. 8 and ARES DAG, as solved and
// decorated; and a solved DAG's compact encoding decodes to its hash.
func TestCompactJSONMatchesIndented(t *testing.T) {
	for _, s := range solvedDAGs(t) {
		for _, d := range []*spec.Spec{s, decorate(s)} {
			for _, n := range d.Nodes() {
				var want bytes.Buffer
				if err := json.Compact(&want, syntax.EncodeJSON(n)); err != nil {
					t.Fatal(err)
				}
				if got := syntax.AppendJSON(nil, n, false); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s: compact encoding\n%s\nwant\n%s", n.Name, got, want.Bytes())
				}
			}
		}
		back, err := syntax.DecodeJSON(syntax.AppendJSON(nil, s, false))
		if err != nil || back.FullHash() != s.FullHash() {
			t.Fatalf("%s: compact round trip: %v", s.Name, err)
		}
	}
}

// addJSONSeeds seeds a spec-JSON fuzz target: the encoding of every spec
// string in testdata/json_seeds.txt (taken from the syntax table tests),
// plain and decorated, and hand-written documents that exercise what
// EncodeJSON never writes: cycles, repeated keys, nulls, unknown keys,
// escaped keys and keys in the wrong case.
func addJSONSeeds(f *testing.F) {
	text, err := os.ReadFile("testdata/json_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, expr := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		s := syntax.MustParse(expr)
		for _, n := range []*spec.Spec{s, decorate(s)} {
			f.Add(syntax.EncodeJSON(n))
		}
	}
	for _, doc := range []string{
		`{"root":"x","nodes":{"x":"x@1.0"},"edges":{"x":["x"]}}`,
		`{"root":"a","nodes":{"a":"a","b":"b"},"edges":{"a":["b"]},"edgetypes":{"a":{"b":"run"}}}`,
		`{"root":"a","root":null,"nodes":{"a":"a@1"},"nodes":{"b":"b@2"},"edges":{"a":["b"]},"edges":{"a":null}}`,
		`{"edges":{"a":["b",null]},"nodes":{"b":"b","a":"a","":"@1"},"root":"a","extra":[1,-2.5e3,{"k":true}]}`,
		`{"root":"\u0061","nodes":{"a":"a","b":"b"},"edges":{"a":["b"]},"edgetypes":{"a":{"b":"build","b":null}},"external":{"b":null}}`,
		`{"Root":"a","nodes":{"a":"a"}}`,
		`{"root":"a","nodes":null,"nodes":{"a":"a"},"namespace":{"a":"ns","a":"site"}}`,
	} {
		f.Add([]byte(doc))
	}
}

// FuzzSpecJSON feeds arbitrary bytes to DecodeJSON. It must never panic,
// and any DAG it accepts must re-encode to the oracle's bytes and decode
// again to the same FullHash.
func FuzzSpecJSON(f *testing.F) {
	addJSONSeeds(f)
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

// FuzzDecodeJSONMatchesOracle holds DecodeJSON to the reflection decoder
// it replaced. Whatever DecodeJSON accepts, the oracle accepts too, with
// the same EncodeJSON bytes and FullHash. Whatever the oracle accepts,
// DecodeJSON accepts too, unless a top-level key names a field only up to
// case: encoding/json reads "Root" as "root", and DecodeJSON refuses it.
func FuzzDecodeJSONMatchesOracle(f *testing.F) {
	addJSONSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := syntax.DecodeJSON(data)
		want, oracleErr := syntax.DecodeJSONOracle(data)
		switch {
		case err == nil && oracleErr != nil:
			t.Fatalf("DecodeJSON accepts what the oracle refuses (%v):\n%s", oracleErr, data)
		case err != nil && oracleErr == nil && !caseVariantKey(data):
			t.Fatalf("DecodeJSON refuses what the oracle accepts: %v\n%s", err, data)
		case err == nil:
			if g, w := syntax.EncodeJSON(got), syntax.EncodeJSON(want); !bytes.Equal(g, w) {
				t.Fatalf("decoders disagree\nDecodeJSON:\n%s\noracle:\n%s", g, w)
			}
			if got.FullHash() != want.FullHash() {
				t.Fatalf("FullHash %s, oracle's %s:\n%s", got.FullHash(), want.FullHash(), data)
			}
		}
	})
}

// caseVariantKey reports whether data is an object with a top-level key
// that differs from a spec JSON field name only by case.
func caseVariantKey(data []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(data, &top) != nil {
		return false
	}
	for key := range top {
		for _, f := range []string{"root", "nodes", "edges", "edgetypes", "external", "namespace"} {
			if key != f && strings.EqualFold(key, f) {
				return true
			}
		}
	}
	return false
}
