package spec

import (
	"strings"
	"testing"

	"repro/internal/version"
)

func mustList(t *testing.T, s string) version.List {
	t.Helper()
	l, err := version.ParseList(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCompilerSatisfies(t *testing.T) {
	gcc47 := Compiler{Name: "gcc", Versions: mustList(t, "4.7.3")}
	gcc := Compiler{Name: "gcc"}
	intel := Compiler{Name: "intel"}
	if !gcc47.Satisfies(gcc) {
		t.Error("gcc@4.7.3 should satisfy gcc")
	}
	if gcc.Satisfies(gcc47) {
		t.Error("gcc should not satisfy gcc@4.7.3")
	}
	if gcc47.Satisfies(intel) {
		t.Error("gcc should not satisfy intel")
	}
	if !gcc47.Satisfies(Compiler{}) {
		t.Error("anything satisfies the empty compiler constraint")
	}
}

func TestCompilerIntersect(t *testing.T) {
	a := Compiler{Name: "gcc", Versions: mustList(t, "4:5")}
	b := Compiler{Name: "gcc", Versions: mustList(t, "4.7:")}
	m, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "gcc@4.7:5" {
		t.Errorf("merged = %q", m.String())
	}
	if _, err := a.Intersect(Compiler{Name: "intel"}); err == nil {
		t.Error("different compiler names should conflict")
	}
	if m, err := a.Intersect(Compiler{}); err != nil || m.Name != "gcc" {
		t.Error("intersect with zero compiler is identity")
	}
}

func buildMpileaks() *Spec {
	// mpileaks -> callpath -> dyninst -> {libdwarf -> libelf, libelf}
	//          -> mpi (virtual placeholder node)
	libelf := New("libelf")
	libdwarf := New("libdwarf")
	libdwarf.AddDep(libelf)
	dyninst := New("dyninst")
	dyninst.AddDep(libdwarf)
	dyninst.AddDep(libelf)
	callpath := New("callpath")
	callpath.AddDep(dyninst)
	mpi := New("mpi")
	callpath.AddDep(mpi)
	root := New("mpileaks")
	root.AddDep(callpath)
	root.AddDep(mpi)
	return root
}

func TestDAGStructure(t *testing.T) {
	s := buildMpileaks()
	if s.Size() != 6 {
		t.Errorf("Size = %d, want 6", s.Size())
	}
	// libelf must be a single shared node.
	if s.Dep("libdwarf").Deps["libelf"] != s.Dep("dyninst").Deps["libelf"] {
		t.Error("libelf node must be shared within the DAG")
	}
	topo := s.TopoOrder()
	pos := make(map[string]int)
	for i, n := range topo {
		pos[n.Name] = i
	}
	deps := map[string][]string{
		"mpileaks": {"callpath", "mpi"},
		"callpath": {"dyninst", "mpi"},
		"dyninst":  {"libdwarf", "libelf"},
		"libdwarf": {"libelf"},
	}
	for pkg, reqs := range deps {
		for _, r := range reqs {
			if pos[r] >= pos[pkg] {
				t.Errorf("topological order violated: %s at %d, dep %s at %d",
					pkg, pos[pkg], r, pos[r])
			}
		}
	}
}

func TestConstrainMergesVersions(t *testing.T) {
	a := New("mpileaks")
	a.Versions = mustList(t, "1.2:1.4")
	b := New("mpileaks")
	b.Versions = mustList(t, "1.3:")
	if err := a.Constrain(b); err != nil {
		t.Fatal(err)
	}
	if a.Versions.String() != "1.3:1.4" {
		t.Errorf("merged versions = %q", a.Versions.String())
	}
}

func TestConstrainConflicts(t *testing.T) {
	a := New("p")
	a.Versions = mustList(t, "1.2")
	b := New("p")
	b.Versions = mustList(t, "2.0")
	err := a.Constrain(b)
	if err == nil {
		t.Fatal("expected version conflict")
	}
	ce, ok := err.(*ConflictError)
	if !ok {
		t.Fatalf("want *ConflictError, got %T: %v", err, err)
	}
	if ce.Package != "p" || ce.Field != "version" {
		t.Errorf("conflict = %+v", ce)
	}
	if !strings.Contains(ce.Error(), "version") {
		t.Errorf("error text = %q", ce.Error())
	}
}

func TestConstrainVariantConflict(t *testing.T) {
	a := New("p")
	a.SetVariant("debug", true)
	b := New("p")
	b.SetVariant("debug", false)
	if err := a.Constrain(b); err == nil {
		t.Error("expected variant conflict")
	}
}

// TestConstrainVariantConflictDeterministic: with several conflicting
// variants the error names the least one, and no variant of o is set, so
// the outcome does not depend on map iteration order.
func TestConstrainVariantConflictDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := New("p")
		for _, v := range []string{"c", "a", "b"} {
			a.SetVariant(v, false)
		}
		b := New("p")
		for _, v := range []string{"c", "a", "b", "d", "e"} {
			b.SetVariant(v, true)
		}
		err := a.Constrain(b)
		if err == nil || !strings.Contains(err.Error(), `variant a for package p: "~a" vs "+a"`) {
			t.Fatalf("Constrain error = %v, want the conflict on variant a", err)
		}
		if len(a.Variants) != 3 {
			t.Fatalf("a = %s: a conflict set variants of o", a)
		}
	}
}

func TestConstrainArchConflict(t *testing.T) {
	a := New("p")
	a.Arch = "bgq"
	b := New("p")
	b.Arch = "linux-x86_64"
	if err := a.Constrain(b); err == nil {
		t.Error("expected arch conflict")
	}
}

func TestConstrainAddsDeps(t *testing.T) {
	a := New("mpileaks")
	b := New("mpileaks")
	cp := New("callpath")
	cp.Versions = mustList(t, "1.1")
	b.AddDep(cp)
	if err := a.Constrain(b); err != nil {
		t.Fatal(err)
	}
	got := a.Deps["callpath"]
	if got == nil || got.Versions.String() != "1.1" {
		t.Errorf("callpath dep = %v", got)
	}
}

func TestConstrainMatchesDepsByNameAnywhere(t *testing.T) {
	// Constraint placed on a transitive dependency merges with the node
	// wherever it sits in the DAG (§3.2.3: user needn't know connectivity).
	s := buildMpileaks()
	c := New("mpileaks")
	libelf := New("libelf")
	libelf.Versions = mustList(t, "0.8.11")
	c.AddDep(libelf)
	if err := s.Constrain(c); err != nil {
		t.Fatal(err)
	}
	if got := s.Dep("libelf").Versions.String(); got != "0.8.11" {
		t.Errorf("libelf version = %q", got)
	}
	// libelf must still be the shared node, and must NOT have become a
	// direct dep duplicate: name appears once in DAG.
	count := 0
	s.Traverse(func(n *Spec) bool {
		if n.Name == "libelf" {
			count++
		}
		return true
	})
	if count != 1 {
		t.Errorf("libelf node count = %d", count)
	}
}

func TestConstrainChangedFixedPoint(t *testing.T) {
	a := New("p")
	a.Versions = mustList(t, "1.2")
	b := New("p")
	b.Versions = mustList(t, "1.2")
	changed, err := a.ConstrainChanged(b)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("identical constraint should not report change")
	}
}

func TestConstrainIdempotent(t *testing.T) {
	a := New("mpileaks")
	a.Versions = mustList(t, "1.2:1.4")
	a.SetVariant("debug", true)
	b := New("mpileaks")
	b.Compiler = Compiler{Name: "gcc"}
	if err := a.Constrain(b); err != nil {
		t.Fatal(err)
	}
	s1 := a.String()
	changed, err := a.ConstrainChanged(b)
	if err != nil {
		t.Fatal(err)
	}
	if changed || a.String() != s1 {
		t.Error("second constrain must be a no-op")
	}
}

func TestSatisfies(t *testing.T) {
	concrete := New("mpileaks")
	concrete.Versions = version.ExactList(version.Parse("1.3"))
	concrete.Compiler = Compiler{Name: "gcc", Versions: mustList(t, "4.7.3")}
	concrete.SetVariant("debug", true)
	concrete.Arch = "bgq"

	abstract := New("mpileaks")
	abstract.Versions = mustList(t, "1.2:1.4")
	if !concrete.Satisfies(abstract) {
		t.Error("concrete should satisfy looser version range")
	}
	if abstract.Satisfies(concrete) {
		t.Error("loose range should not satisfy pinned version")
	}

	withArch := New("mpileaks")
	withArch.Arch = "bgq"
	if !concrete.Satisfies(withArch) {
		t.Error("matching arch should satisfy")
	}
	withArch.Arch = "linux-x86_64"
	if concrete.Satisfies(withArch) {
		t.Error("different arch should not satisfy")
	}

	anon := New("") // anonymous %gcc predicate
	anon.Compiler = Compiler{Name: "gcc"}
	if !concrete.Satisfies(anon) {
		t.Error("concrete gcc build should satisfy anonymous compiler predicate")
	}
	anon.Compiler = Compiler{Name: "xl"}
	if concrete.Satisfies(anon) {
		t.Error("gcc build should not satisfy xl compiler predicate")
	}
}

func TestSatisfiesDeps(t *testing.T) {
	s := buildMpileaks()
	s.Dep("libelf").Versions = version.ExactList(version.Parse("0.8.11"))

	q := New("mpileaks")
	le := New("libelf")
	le.Versions = mustList(t, "0.8:")
	q.AddDep(le)
	if !s.Satisfies(q) {
		t.Error("DAG with libelf@0.8.11 should satisfy ^libelf@0.8:")
	}
	le.Versions = mustList(t, "0.9:")
	if s.Satisfies(q) {
		t.Error("libelf@0.8.11 should not satisfy ^libelf@0.9:")
	}
	q2 := New("mpileaks")
	q2.AddDep(New("nonexistent"))
	if s.Satisfies(q2) {
		t.Error("missing dep name should not satisfy")
	}
}

func TestSatisfiesReflexiveOnConcrete(t *testing.T) {
	s := New("p")
	s.Versions = version.ExactList(version.Parse("1.0"))
	s.Compiler = Compiler{Name: "gcc", Versions: mustList(t, "4.9")}
	s.Arch = "linux-x86_64"
	s.SetVariant("debug", false)
	if !s.Satisfies(s) {
		t.Error("concrete spec must satisfy itself")
	}
}

func TestCompatible(t *testing.T) {
	a := New("p")
	a.Versions = mustList(t, "1:3")
	b := New("p")
	b.Versions = mustList(t, "2:4")
	if !a.Compatible(b) || !b.Compatible(a) {
		t.Error("overlapping ranges are compatible")
	}
	c := New("p")
	c.Versions = mustList(t, "5:")
	if a.Compatible(c) {
		t.Error("disjoint ranges are incompatible")
	}
	// Compatible must not mutate its receiver.
	if a.Versions.String() != "1:3" {
		t.Error("Compatible mutated receiver")
	}
}

// TestConstrainAnonymous: an anonymous constraint (a when= predicate)
// applies to the receiver's root node — regression test for provider
// when-conditions being silently ignored.
func TestConstrainAnonymous(t *testing.T) {
	s := New("mpich")
	s.Versions = mustList(t, "1.4.1")
	when := New("")
	when.Versions = mustList(t, "3:")
	if err := s.Constrain(when); err == nil {
		t.Error("mpich@1.4.1 constrained by @3: must conflict")
	}

	s2 := New("mpich")
	s2.Versions = mustList(t, "3.1.4")
	if err := s2.Constrain(when); err != nil {
		t.Errorf("mpich@3.1.4 constrained by @3: should merge: %v", err)
	}
	if s2.Versions.String() != "3.1.4" {
		t.Errorf("versions = %q", s2.Versions.String())
	}

	// Compatible respects anonymous constraints too.
	if s.Clone().Compatible(when) {
		t.Error("Compatible must see anonymous root constraints")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := buildMpileaks()
	c := s.Clone()
	c.Dep("libelf").Versions = version.ExactList(version.Parse("9.9"))
	if s.Dep("libelf").Versions.String() == "9.9" {
		t.Error("clone shares state with original")
	}
	if s.String() == c.String() {
		t.Error("strings should differ after mutation")
	}
	// Sharing structure preserved in the clone.
	if c.Dep("libdwarf").Deps["libelf"] != c.Dep("dyninst").Deps["libelf"] {
		t.Error("clone lost node sharing")
	}
}

func TestStringCanonical(t *testing.T) {
	a := New("mpileaks")
	a.SetVariant("debug", true)
	a.SetVariant("static", false)
	a.AddDep(New("zlib"))
	a.AddDep(New("callpath"))

	b := New("mpileaks")
	b.AddDep(New("callpath"))
	b.AddDep(New("zlib"))
	b.SetVariant("static", false)
	b.SetVariant("debug", true)

	if a.String() != b.String() {
		t.Errorf("insertion order changed rendering: %q vs %q", a, b)
	}
	want := "mpileaks+debug~static ^callpath ^zlib"
	if a.String() != want {
		t.Errorf("String = %q, want %q", a, want)
	}
}

func TestConcrete(t *testing.T) {
	s := New("p")
	if s.Concrete() {
		t.Error("fresh spec is not concrete")
	}
	s.Versions = version.ExactList(version.Parse("1.0"))
	s.Compiler = Compiler{Name: "gcc", Versions: mustList(t, "4.9.2")}
	s.Arch = "linux-x86_64"
	if !s.Concrete() {
		t.Error("fully pinned node should be concrete")
	}
	d := New("d")
	s.AddDep(d)
	if s.Concrete() {
		t.Error("unpinned dependency should block concreteness")
	}
	d.Versions = version.ExactList(version.Parse("2.0"))
	d.Compiler = s.Compiler
	d.Arch = "linux-x86_64"
	if !s.Concrete() {
		t.Error("all nodes pinned should be concrete")
	}
}

func TestExternalNodeConcrete(t *testing.T) {
	s := New("mvapich2")
	s.Versions = version.ExactList(version.Parse("1.9"))
	s.External = true
	s.Path = "/usr/local/tools/mvapich2"
	s.Arch = "linux-x86_64"
	if !s.NodeConcrete() {
		t.Error("external node with version+arch should be concrete")
	}
	if !strings.Contains(s.String(), "[external:/usr/local/tools/mvapich2]") {
		t.Errorf("String = %q", s.String())
	}
}

func TestHashStability(t *testing.T) {
	a := buildMpileaks()
	b := buildMpileaks()
	if a.DAGHash() != b.DAGHash() {
		t.Error("identical DAGs must hash equal")
	}
	b.Dep("libelf").Versions = version.ExactList(version.Parse("0.8.13"))
	if a.DAGHash() == b.DAGHash() {
		t.Error("parameter change must change the hash")
	}
	if len(a.DAGHash()) != 8 {
		t.Errorf("short hash length = %d", len(a.DAGHash()))
	}
	if len(a.FullHash()) < 32 {
		t.Errorf("full hash too short: %d", len(a.FullHash()))
	}
}

func TestHashEdgeSensitivity(t *testing.T) {
	// Same node set, different edges, must hash differently.
	x1, y1, z1 := New("x"), New("y"), New("z")
	x1.AddDep(y1)
	y1.AddDep(z1)

	x2, y2, z2 := New("x"), New("y"), New("z")
	x2.AddDep(y2)
	x2.AddDep(z2)

	if x1.DAGHash() == x2.DAGHash() {
		t.Error("different edge structure must change hash")
	}
}

func TestTreeString(t *testing.T) {
	s := buildMpileaks()
	tree := s.TreeString()
	if !strings.HasPrefix(tree, "mpileaks\n") {
		t.Errorf("tree = %q", tree)
	}
	if !strings.Contains(tree, "^callpath") || !strings.Contains(tree, "^libelf") {
		t.Errorf("tree missing deps:\n%s", tree)
	}
}

// TestTreeStringExact pins TreeString and String byte for byte on a DAG
// that exercises every part of a node's rendering.
func TestTreeStringExact(t *testing.T) {
	s := pinnedTreeDAG()
	wantTree := "mpileaks@1.0,2.0:2.2%gcc@4.9.2+debug\n" +
		"    ^cmake@3.0: [external:/usr] [build,run]\n" +
		"    ^libdwarf@:20130729+a~b+c~d+e~f+g~h+i~j\n" +
		"        ^cmake@3.0: [external:/usr] [build]\n" +
		"        ^libelf@0.8.13%gcc@4.7:4.9,5.1=linux-x86_64\n" +
		"    ^libelf@0.8.13%gcc@4.7:4.9,5.1=linux-x86_64\n" +
		"    ^python%intel [external] [run]\n"
	if got := s.TreeString(); got != wantTree {
		t.Errorf("TreeString =\n%s\nwant\n%s", got, wantTree)
	}
	wantString := "mpileaks@1.0,2.0:2.2%gcc@4.9.2+debug ^cmake@3.0: [external:/usr] " +
		"^libdwarf@:20130729+a~b+c~d+e~f+g~h+i~j ^libelf@0.8.13%gcc@4.7:4.9,5.1=linux-x86_64 " +
		"^python%intel [external]"
	if got := s.String(); got != wantString {
		t.Errorf("String = %q, want %q", got, wantString)
	}
	// AppendNode is the node alone: no dependency clauses, no external
	// annotation.
	if got := string(s.Dep("cmake").AppendNode([]byte("x:"))); got != "x:cmake@3.0:" {
		t.Errorf("AppendNode = %q", got)
	}
}

// pinnedTreeDAG exercises every part of a node's rendering: version
// lists, compiler ranges, more variants than fit a small buffer, arch,
// an external with and without a path, and non-default edge types.
func pinnedTreeDAG() *Spec {
	list := func(s string) version.List {
		l, err := version.ParseList(s)
		if err != nil {
			panic(err)
		}
		return l
	}
	libelf := New("libelf")
	libelf.Versions = list("0.8.13")
	libelf.Compiler = Compiler{Name: "gcc", Versions: list("4.7:4.9,5.1")}
	libelf.Arch = "linux-x86_64"
	cmake := New("cmake")
	cmake.Versions = list("3.0:")
	cmake.External = true
	cmake.Path = "/usr"
	python := New("python")
	python.External = true
	python.Compiler = Compiler{Name: "intel"}
	libdwarf := New("libdwarf")
	libdwarf.Versions = list(":20130729")
	for i, v := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		libdwarf.SetVariant(v, i%2 == 0)
	}
	libdwarf.AddDep(libelf)
	libdwarf.AddDep(cmake)
	libdwarf.SetDepType("cmake", DepBuild)
	root := New("mpileaks")
	root.Versions = list("1.0,2.0:2.2")
	root.Compiler = Compiler{Name: "gcc", Versions: version.ExactList(version.Parse("4.9.2"))}
	root.SetVariant("debug", true)
	root.AddDep(libdwarf)
	root.AddDep(libelf)
	root.AddDep(python)
	root.SetDepType("python", DepRun)
	root.AddDep(cmake)
	root.SetDepType("cmake", DepBuild|DepRun)
	return root
}

func TestVariantHelpers(t *testing.T) {
	s := New("p")
	if _, ok := s.Variant("debug"); ok {
		t.Error("unset variant should not be present")
	}
	s.SetVariant("debug", true)
	if on, ok := s.Variant("debug"); !ok || !on {
		t.Error("variant set failed")
	}
}

func TestDepLookupMissing(t *testing.T) {
	s := buildMpileaks()
	if s.Dep("nothere") != nil {
		t.Error("Dep of missing name should be nil")
	}
	if s.Dep("mpileaks") != s {
		t.Error("Dep should find the root by name")
	}
}
