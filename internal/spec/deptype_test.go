package spec

import (
	"strings"
	"testing"

	"repro/internal/version"
)

func TestDepTypeString(t *testing.T) {
	tests := []struct {
		t    DepType
		want string
	}{
		{DepBuild, "build"},
		{DepLink, "link"},
		{DepRun, "run"},
		{DepBuild | DepLink, "build,link"},
		{DepBuild | DepLink | DepRun, "build,link,run"},
		{0, "none"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("DepType(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestAddDepTyped(t *testing.T) {
	s := New("root")
	tool := New("cmake")
	lib := New("zlib")
	if err := s.AddDepTyped(tool, DepBuild); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDep(lib); err != nil {
		t.Fatal(err)
	}
	if got := s.EdgeType("cmake"); got != DepBuild {
		t.Errorf("cmake edge = %v", got)
	}
	if got := s.EdgeType("zlib"); got != DepDefault {
		t.Errorf("zlib edge = %v", got)
	}
	// Re-adding with another type unions.
	if err := s.AddDepTyped(New("cmake"), DepRun); err != nil {
		t.Fatal(err)
	}
	if got := s.EdgeType("cmake"); got != DepBuild|DepRun {
		t.Errorf("merged cmake edge = %v", got)
	}
	// Default edges carry no annotation in the canonical hash input.
	if canon, _ := s.canonicalDAG(); strings.Contains(canon, "zlib[") {
		t.Errorf("default edge type should not be rendered: %q", canon)
	}
}

func TestLinkDeps(t *testing.T) {
	// root -> cmake (build only), root -> libA (link) -> libB (link),
	// libA -> tool (build only).
	root := New("root")
	cmake := New("cmake")
	libA := New("liba")
	libB := New("libb")
	tool := New("tool")
	root.AddDepTyped(cmake, DepBuild)
	root.AddDep(libA)
	libA.AddDep(libB)
	libA.AddDepTyped(tool, DepBuild)

	got := root.LinkDeps()
	names := make([]string, len(got))
	for i, d := range got {
		names[i] = d.Name
	}
	if len(names) != 2 || names[0] != "liba" || names[1] != "libb" {
		t.Errorf("LinkDeps = %v, want [liba libb]", names)
	}
}

func TestDepTypeChangesHash(t *testing.T) {
	mk := func(t DepType) *Spec {
		s := New("root")
		s.Versions = version.ExactList(version.Parse("1.0"))
		d := New("dep")
		d.Versions = version.ExactList(version.Parse("2.0"))
		s.AddDepTyped(d, t)
		return s
	}
	if mk(DepDefault).DAGHash() == mk(DepBuild).DAGHash() {
		t.Error("edge type must affect the hash")
	}
	if mk(DepBuild).DAGHash() != mk(DepBuild).DAGHash() {
		t.Error("hash not stable")
	}
}

func TestDepTypeSurvivesCloneAndConstrain(t *testing.T) {
	s := New("root")
	s.AddDepTyped(New("cmake"), DepBuild)
	c := s.Clone()
	if c.EdgeType("cmake") != DepBuild {
		t.Error("clone lost edge type")
	}

	// Constrain merges edge types from the other spec.
	o := New("root")
	o.AddDepTyped(New("cmake"), DepRun)
	if err := s.Constrain(o); err != nil {
		t.Fatal(err)
	}
	if got := s.EdgeType("cmake"); got != DepBuild|DepRun {
		t.Errorf("constrained edge = %v", got)
	}

	// A new edge arriving via Constrain carries its type.
	o2 := New("root")
	o2.AddDepTyped(New("flex"), DepBuild)
	if err := s.Constrain(o2); err != nil {
		t.Fatal(err)
	}
	if got := s.EdgeType("flex"); got != DepBuild {
		t.Errorf("new edge type = %v", got)
	}
}
