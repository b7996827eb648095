package spec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/version"
)

// spliceNode builds a fully pinned node for splice tests.
func spliceNode(name, ver string) *Spec {
	s := New(name)
	s.Versions = version.ExactList(version.Parse(ver))
	s.Compiler = Compiler{Name: "gcc", Versions: version.ExactList(version.Parse("4.9.2"))}
	s.Arch = "linux-x86_64"
	return s
}

// spliceFixture: app -> mid -> zlib@1.2.7, app -> zlib@1.2.7 (shared).
func spliceFixture() *Spec {
	zlib := spliceNode("zlib", "1.2.7")
	mid := spliceNode("mid", "2.0")
	mid.AddDep(zlib)
	app := spliceNode("app", "1.0")
	app.AddDep(mid)
	app.AddDepTyped(zlib, DepLink)
	return app
}

func TestSpliceDepRewiresEveryEdge(t *testing.T) {
	app := spliceFixture()
	oldHash := app.FullHash()
	oldMidHash := app.Dep("mid").FullHash()

	newZlib := spliceNode("zlib", "1.2.8")
	spliced, err := SpliceDep(app, "zlib", newZlib)
	if err != nil {
		t.Fatal(err)
	}
	// The original DAG is untouched.
	if app.FullHash() != oldHash {
		t.Error("SpliceDep mutated the input DAG")
	}
	got := spliced.Dep("zlib")
	if got == nil {
		t.Fatal("spliced DAG lost the zlib node")
	}
	if v, _ := got.ConcreteVersion(); v.String() != "1.2.8" {
		t.Errorf("spliced zlib version = %s, want 1.2.8", v)
	}
	// Both parents see the same replacement node (sharing preserved).
	if spliced.DirectDep("zlib") != spliced.Dep("mid").DirectDep("zlib") {
		t.Error("replacement node not shared between parents")
	}
	// Edge types carried over.
	if spliced.EdgeType("zlib") != DepLink {
		t.Errorf("root edge type = %v, want DepLink", spliced.EdgeType("zlib"))
	}
	if spliced.Dep("mid").EdgeType("zlib") != DepDefault {
		t.Errorf("mid edge type = %v, want DepDefault", spliced.Dep("mid").EdgeType("zlib"))
	}
	// Every cone node rehashes; the replaced leaf obviously differs too.
	if spliced.FullHash() == oldHash {
		t.Error("root hash unchanged by splice")
	}
	if spliced.Dep("mid").FullHash() == oldMidHash {
		t.Error("mid hash unchanged by splice")
	}
	if !spliced.Concrete() {
		t.Error("spliced DAG is not concrete")
	}
}

func TestSpliceDepDifferentName(t *testing.T) {
	mpich := spliceNode("mpich", "3.0.4")
	app := spliceNode("app", "1.0")
	app.AddDepTyped(mpich, DepLink)

	openmpi := spliceNode("openmpi", "1.8.8")
	spliced, err := SpliceDep(app, "mpich", openmpi)
	if err != nil {
		t.Fatal(err)
	}
	if spliced.Dep("mpich") != nil {
		t.Error("mpich still present after splice")
	}
	om := spliced.Dep("openmpi")
	if om == nil {
		t.Fatal("openmpi not grafted")
	}
	if spliced.EdgeType("openmpi") != DepLink {
		t.Errorf("edge type = %v, want DepLink (carried from the cut edge)", spliced.EdgeType("openmpi"))
	}
}

func TestSpliceDepUnifiesEqualTransitives(t *testing.T) {
	// app -> mid -> zlib; the replacement for mid also needs the *same*
	// zlib: the DAG must keep a single shared node.
	app := spliceFixture()
	zlib := spliceNode("zlib", "1.2.7")
	newMid := spliceNode("mid", "3.0")
	newMid.AddDep(zlib)

	spliced, err := SpliceDep(app, "mid", newMid)
	if err != nil {
		t.Fatal(err)
	}
	if spliced.DirectDep("zlib") != spliced.Dep("mid").DirectDep("zlib") {
		t.Error("equal transitive dependency not unified into one node")
	}
}

func TestSpliceDepRejectsConflictingTransitives(t *testing.T) {
	app := spliceFixture()
	otherZlib := spliceNode("zlib", "4.0")
	newMid := spliceNode("mid", "3.0")
	newMid.AddDep(otherZlib)

	_, err := SpliceDep(app, "mid", newMid)
	if err == nil {
		t.Fatal("conflicting transitive dependency accepted")
	}
	if !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("error = %v, want an incompatibility complaint", err)
	}
}

func TestSpliceDepErrors(t *testing.T) {
	app := spliceFixture()
	repl := spliceNode("zlib", "1.2.8")
	if _, err := SpliceDep(app, "app", repl); err == nil {
		t.Error("replacing the root accepted")
	}
	if _, err := SpliceDep(app, "nothere", repl); err == nil {
		t.Error("replacing an absent dependency accepted")
	}
	abstract := New("zlib")
	if _, err := SpliceDep(app, "zlib", abstract); err == nil {
		t.Error("abstract replacement accepted")
	}
}

func TestSpliceCone(t *testing.T) {
	// app -> mid -> zlib, app -> zlib, app -> other (other: no zlib).
	app := spliceFixture()
	other := spliceNode("other", "1.1")
	app.AddDep(other)

	got := SpliceCone(app, "zlib")
	want := []string{"mid", "app"} // bottom-up, excluding zlib and other
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cone = %v, want %v", got, want)
	}
	if cone := SpliceCone(app, "other"); !reflect.DeepEqual(cone, []string{"app"}) {
		t.Errorf("cone over direct-only dep = %v, want [app]", cone)
	}
}
