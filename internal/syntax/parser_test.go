package syntax

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestTable2Examples parses each spec-syntax example of the paper's Table 2
// and checks the documented meaning.
func TestTable2Examples(t *testing.T) {
	// Row 1: mpileaks — no constraints.
	s := MustParse("mpileaks")
	if s.Name != "mpileaks" || !s.Versions.IsAny() || !s.Compiler.IsZero() ||
		len(s.Variants) != 0 || s.Arch != "" || len(s.DirectDeps()) != 0 {
		t.Errorf("row 1: unexpected constraints in %q", s)
	}

	// Row 2: [email protected].
	s = MustParse("mpileaks@1.1.2")
	if v, ok := s.Versions.Concrete(); !ok || v.String() != "1.1.2" {
		t.Errorf("row 2: version = %v", s.Versions)
	}

	// Row 3: [email protected] %gcc — gcc at default (unconstrained) version.
	s = MustParse("mpileaks@1.1.2 %gcc")
	if s.Compiler.Name != "gcc" || !s.Compiler.Versions.IsAny() {
		t.Errorf("row 3: compiler = %v", s.Compiler)
	}

	// Row 4: [email protected] %[email protected] +debug.
	s = MustParse("mpileaks@1.1.2 %intel@14.1 +debug")
	if s.Compiler.Name != "intel" {
		t.Errorf("row 4: compiler = %v", s.Compiler)
	}
	if v := s.Compiler.Versions.String(); v != "14.1" {
		t.Errorf("row 4: compiler version = %q", v)
	}
	if on, ok := s.Variant("debug"); !ok || !on {
		t.Errorf("row 4: debug variant = %v, %v", on, ok)
	}

	// Row 5: [email protected] =bgq.
	s = MustParse("mpileaks@1.1.2 =bgq")
	if s.Arch != "bgq" {
		t.Errorf("row 5: arch = %q", s.Arch)
	}

	// Row 6: [email protected] ^[email protected].
	s = MustParse("mpileaks@1.1.2 ^mvapich2@1.9")
	d := s.DirectDep("mvapich2")
	if d == nil {
		t.Fatal("row 6: missing mvapich2 dep")
	}
	if v, ok := d.Versions.Concrete(); !ok || v.String() != "1.9" {
		t.Errorf("row 6: dep version = %v", d.Versions)
	}

	// Row 7: the full example with ranges, disabled variant, arch, and two
	// dependency clauses.
	s = MustParse("mpileaks @1.2:1.4 %gcc@4.7.5 -debug =bgq " +
		"^callpath @1.1 %gcc@4.7.2 ^openmpi @1.4.7")
	if got := s.Versions.String(); got != "1.2:1.4" {
		t.Errorf("row 7: version = %q", got)
	}
	if s.Compiler.String() != "gcc@4.7.5" {
		t.Errorf("row 7: compiler = %q", s.Compiler.String())
	}
	if on, ok := s.Variant("debug"); !ok || on {
		t.Errorf("row 7: debug = %v, %v (want explicitly disabled)", on, ok)
	}
	if s.Arch != "bgq" {
		t.Errorf("row 7: arch = %q", s.Arch)
	}
	cp := s.DirectDep("callpath")
	if cp == nil || cp.Versions.String() != "1.1" || cp.Compiler.String() != "gcc@4.7.2" {
		t.Errorf("row 7: callpath = %v", cp)
	}
	om := s.DirectDep("openmpi")
	if om == nil || om.Versions.String() != "1.4.7" {
		t.Errorf("row 7: openmpi = %v", om)
	}
}

func TestVersionRangeSyntax(t *testing.T) {
	tests := []struct{ in, want string }{
		{"boost@2.3:", "2.3:"},
		{"boost@:8.1", ":8.1"},
		{"boost@2.3:2.5.6", "2.3:2.5.6"},
		{"boost@1.2,2.0", "1.2,2.0"},
		{"boost@1.2:1.4,2.0:", "1.2:1.4,2.0:"},
	}
	for _, tt := range tests {
		s, err := Parse(tt.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.in, err)
		}
		if got := s.Versions.String(); got != tt.want {
			t.Errorf("Parse(%q).Versions = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAnonymousSpecs(t *testing.T) {
	// when= predicates from §3.2.4.
	s := MustParse("%gcc@:4")
	if s.Name != "" || s.Compiler.Name != "gcc" || s.Compiler.Versions.String() != ":4" {
		t.Errorf("anonymous compiler spec = %v", s)
	}
	s = MustParse("+mpi")
	if on, ok := s.Variant("mpi"); !ok || !on {
		t.Error("anonymous variant spec failed")
	}
	s = MustParse("=bgq%xl")
	if s.Arch != "bgq" || s.Compiler.Name != "xl" {
		t.Errorf("anonymous arch+compiler spec = %v", s)
	}
}

func TestDisableSigils(t *testing.T) {
	for _, in := range []string{"pkg -debug", "pkg ~debug", "pkg~debug"} {
		s := MustParse(in)
		if on, ok := s.Variant("debug"); !ok || on {
			t.Errorf("Parse(%q): debug = %v, %v", in, on, ok)
		}
	}
}

func TestHyphenInNames(t *testing.T) {
	// '-' inside an id is part of the name; '=linux-ppc64' must lex as one id.
	s := MustParse("py-numpy =linux-ppc64")
	if s.Name != "py-numpy" {
		t.Errorf("name = %q", s.Name)
	}
	if s.Arch != "linux-ppc64" {
		t.Errorf("arch = %q", s.Arch)
	}
}

func TestDuplicateDepMerges(t *testing.T) {
	s, err := Parse("a ^b@1.2 ^b%gcc")
	if err != nil {
		t.Fatalf("merging duplicate dep clauses should succeed: %v", err)
	}
	b := s.DirectDep("b")
	if b.Versions.String() != "1.2" || b.Compiler.Name != "gcc" {
		t.Errorf("merged dep = %v", b)
	}
}

func TestDuplicateDepConflicts(t *testing.T) {
	if _, err := Parse("a ^b@1.2 ^b@2.0"); err == nil {
		t.Error("conflicting duplicate versions should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"pkg @",
		"pkg @,",
		"pkg %",
		"pkg =",
		"pkg +",
		"pkg ^",
		"pkg ^@1.2",     // dependency must be named
		"pkg @1.2 @2.0", // conflicting versions
		"pkg +debug ~debug",
		"pkg =a =b",
		"pkg %gcc %intel",
		"pkg !bang",
		"pkg ^dep extra junk", // 'extra' parses as a new dep name... actually it terminates; see below
		"zlib ^zlib",          // a spec cannot depend on itself
		"mpileaks ^callpath ^mpileaks@1.0",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			// "pkg ^dep extra junk" — a bare id after a complete dep is a
			// grammar violation (no '^'), so it must error too.
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseAtSign(t *testing.T) {
	s := MustParse("gcc@4.9.2")
	if v, ok := s.Versions.Concrete(); !ok || v.String() != "4.9.2" {
		t.Errorf("versions = %v", s.Versions)
	}
}

func TestWhitespaceInsensitive(t *testing.T) {
	a := MustParse("mpileaks@1.2%gcc@4.5+debug=bgq^callpath@1.1")
	b := MustParse("  mpileaks @1.2 %gcc@4.5 +debug =bgq ^ callpath @1.1 ")
	if a.String() != b.String() {
		t.Errorf("whitespace changed parse: %q vs %q", a, b)
	}
}

// TestRoundTrip checks Parse(s.String()).String() == s.String() for a corpus.
// roundTripCorpus is the canonical forms TestRoundTrip re-parses.
var roundTripCorpus = []string{
	"mpileaks",
	"mpileaks@1.1.2",
	"mpileaks@1.1.2%gcc",
	"mpileaks@1.1.2%intel@14.1+debug",
	"mpileaks@1.1.2=bgq",
	"mpileaks@1.2:1.4%gcc@4.7.5~debug=bgq ^callpath@1.1%gcc@4.7.2 ^openmpi@1.4.7",
	"a@1.2,2.0:3.0 ^b~shared+static ^c=linux-ppc64",
}

// table2Specs is the paper's Table 2 examples as TestTable2Examples writes
// them.
var table2Specs = []string{
	"mpileaks",
	"mpileaks@1.1.2",
	"mpileaks@1.1.2 %gcc",
	"mpileaks@1.1.2 %intel@14.1 +debug",
	"mpileaks@1.1.2 =bgq",
	"mpileaks@1.1.2 ^mvapich2@1.9",
	"mpileaks @1.2:1.4 %gcc@4.7.5 -debug =bgq ^callpath @1.1 %gcc@4.7.2 ^openmpi @1.4.7",
}

func TestRoundTrip(t *testing.T) {
	for _, in := range roundTripCorpus {
		s := MustParse(in)
		out := s.String()
		s2 := MustParse(out)
		if s2.String() != out {
			t.Errorf("round trip of %q: %q then %q", in, out, s2.String())
		}
	}
}

// randomSpecString builds random well-formed spec strings for the
// parse/format fixed-point property.
func randomSpecString(r *rand.Rand) string {
	names := []string{"mpileaks", "callpath", "dyninst", "libelf", "boost", "py-numpy"}
	comps := []string{"gcc", "intel", "clang", "xl"}
	archs := []string{"bgq", "linux-ppc64", "cray-xe6"}
	var b strings.Builder
	b.WriteString(names[r.Intn(len(names))])
	if r.Intn(2) == 0 {
		b.WriteString("@")
		b.WriteString(randVer(r))
		if r.Intn(3) == 0 {
			b.WriteString(":")
			b.WriteString(randVer(r))
		}
	}
	if r.Intn(2) == 0 {
		b.WriteString("%")
		b.WriteString(comps[r.Intn(len(comps))])
		if r.Intn(2) == 0 {
			b.WriteString("@")
			b.WriteString(randVer(r))
		}
	}
	if r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			b.WriteString("+debug")
		} else {
			b.WriteString("~debug")
		}
	}
	if r.Intn(3) == 0 {
		b.WriteString("=")
		b.WriteString(archs[r.Intn(len(archs))])
	}
	if r.Intn(2) == 0 {
		b.WriteString(" ^")
		deps := []string{"mpich", "openmpi", "zlib"}
		b.WriteString(deps[r.Intn(len(deps))])
		if r.Intn(2) == 0 {
			b.WriteString("@")
			b.WriteString(randVer(r))
		}
	}
	return b.String()
}

func randVer(r *rand.Rand) string {
	n := 1 + r.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = string(rune('0' + r.Intn(10)))
	}
	return strings.Join(parts, ".")
}

type specString string

func (specString) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(specString(randomSpecString(r)))
}

// TestQuickFormatFixedPoint: formatting then reparsing is a fixed point.
func TestQuickFormatFixedPoint(t *testing.T) {
	f := func(in specString) bool {
		s, err := Parse(string(in))
		if err != nil {
			return false
		}
		out := s.String()
		s2, err := Parse(out)
		if err != nil {
			return false
		}
		return s2.String() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseNeverPanics feeds arbitrary strings to the parser.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(in string) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Parse(%q) panicked: %v", in, p)
			}
		}()
		_, _ = Parse(in)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("pkg !")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if se.Pos != 4 || !strings.Contains(se.Error(), "offset 4") {
		t.Errorf("error = %v", se)
	}
}

// FuzzParseFormat: whatever Parse accepts formats to a string that parses
// again to the same string and the same FullHash.
func FuzzParseFormat(f *testing.F) {
	for _, corpus := range [][]string{table2Specs, roundTripCorpus} {
		for _, in := range corpus {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		out := s.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) formats as %q, which does not parse: %v", in, out, err)
		}
		if got := again.String(); got != out {
			t.Fatalf("Parse(%q) formats as %q, then as %q", in, out, got)
		}
		if again.FullHash() != s.FullHash() {
			t.Fatalf("Parse(%q): FullHash moved across the round trip through %q", in, out)
		}
	})
}
