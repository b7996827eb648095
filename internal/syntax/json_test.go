package syntax

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/version"
)

// buildNested constructs a DAG with nested edges that the flat rendering
// cannot represent: a -> {b, c}, b -> c.
func buildNested() *spec.Spec {
	c := spec.New("cpkg")
	c.Versions = version.ExactList(version.Parse("1.0"))
	b := spec.New("bpkg")
	b.Versions = version.ExactList(version.Parse("2.0"))
	b.AddDep(c)
	a := spec.New("apkg")
	a.Versions = version.ExactList(version.Parse("3.0"))
	a.SetVariant("debug", true)
	a.Compiler = spec.Compiler{Name: "gcc", Versions: version.ExactList(version.Parse("4.9.2"))}
	a.Arch = "linux-x86_64"
	a.AddDep(b)
	a.AddDep(c)
	return a
}

func TestJSONRoundTripPreservesEdges(t *testing.T) {
	orig := buildNested()
	data := EncodeJSON(orig)
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Errorf("flat render differs: %q vs %q", back, orig)
	}
	// The critical property: edge structure (and therefore the hash)
	// survives, unlike a flat-string round trip.
	if back.FullHash() != orig.FullHash() {
		t.Error("hash changed across JSON round trip")
	}
	if back.Dep("bpkg").Deps["cpkg"] == nil {
		t.Error("nested edge b->c lost")
	}
	// Node sharing preserved: one cpkg node.
	if back.Dep("bpkg").Deps["cpkg"] != back.Deps["cpkg"] {
		t.Error("node sharing lost")
	}
}

func TestFlatStringLosesEdges(t *testing.T) {
	// Documents why JSON exists: reparsing the flat string drops the
	// nested b->c edge and changes the hash.
	orig := buildNested()
	flat := MustParse(orig.String())
	if flat.FullHash() == orig.FullHash() {
		t.Skip("flat parse happened to preserve structure for this DAG")
	}
}

func TestJSONExternalsAndNamespace(t *testing.T) {
	s := buildNested()
	ext := s.Dep("cpkg")
	ext.External = true
	ext.Path = "/opt/vendor"
	ext.Namespace = "builtin"
	data := EncodeJSON(s)
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	c := back.Dep("cpkg")
	if !c.External || c.Path != "/opt/vendor" || c.Namespace != "builtin" {
		t.Errorf("external fields lost: %+v", c)
	}
	if back.FullHash() != s.FullHash() {
		t.Error("hash changed with externals")
	}
}

func TestJSONEdgeTypesRoundTrip(t *testing.T) {
	s := buildNested()
	s.SetDepType("bpkg", spec.DepBuild)
	data := EncodeJSON(s)
	if !strings.Contains(string(data), `"bpkg": "build"`) {
		t.Errorf("edge type not serialized:\n%s", data)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.EdgeType("bpkg"); got != spec.DepBuild {
		t.Errorf("edge type after round trip = %v", got)
	}
	if back.FullHash() != s.FullHash() {
		t.Error("hash changed with edge types")
	}
	// Unknown type strings are rejected.
	bad := strings.Replace(string(data), `"bpkg": "build"`, `"bpkg": "quantum"`, 1)
	if _, err := DecodeJSON([]byte(bad)); err == nil {
		t.Error("unknown edge type should fail to decode")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":          "{nope",
		"no root":           `{"nodes":{}}`,
		"missing root":      `{"root":"x","nodes":{}}`,
		"bad node":          `{"root":"x","nodes":{"x":"!!"}}`,
		"node mismatch":     `{"root":"x","nodes":{"x":"y@1.0"}}`,
		"edge from unknown": `{"root":"x","nodes":{"x":"x@1.0"},"edges":{"z":["x"]}}`,
		"edge to unknown":   `{"root":"x","nodes":{"x":"x@1.0"},"edges":{"x":["z"]}}`,
	}
	for name, data := range cases {
		if _, err := DecodeJSON([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEncodeJSONReadable(t *testing.T) {
	data := EncodeJSON(buildNested())
	text := string(data)
	for _, want := range []string{`"root": "apkg"`, `"apkg@3.0`, `"edges"`} {
		if !strings.Contains(text, want) {
			t.Errorf("encoding missing %q:\n%s", want, text)
		}
	}
}
