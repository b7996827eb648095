package version

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSegments(t *testing.T) {
	tests := []struct {
		in   string
		want int // segment count
	}{
		{"1", 1},
		{"1.2", 2},
		{"1.2.3", 3},
		{"1_2-3", 3},
		{"2.4b2", 4}, // 2 . 4 b 2
		{"develop", 1},
		{"1.2rc1", 4},
	}
	for _, tt := range tests {
		v := Parse(tt.in)
		if v.Len() != tt.want {
			t.Errorf("Parse(%q).Len() = %d, want %d", tt.in, v.Len(), tt.want)
		}
		if v.String() != tt.in {
			t.Errorf("Parse(%q).String() = %q", tt.in, v.String())
		}
	}
}

func TestCompare(t *testing.T) {
	ordered := []string{
		"alpha", "beta", "0.9", "1", "1.0alpha", "1.0", "1.0.1", "1.1",
		"1.2rc1", "1.2", "1.10", "2", "2.4a1", "2.4b2", "2.4", "10.0",
	}
	for i, a := range ordered {
		for j, b := range ordered {
			got := Parse(a).Compare(Parse(b))
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestEqualAcrossSeparators(t *testing.T) {
	if !Parse("1.0").Equal(Parse("1_0")) {
		t.Error("1.0 should equal 1_0 componentwise")
	}
	if Parse("1.0").String() == Parse("1_0").String() {
		t.Error("raw spellings should be preserved")
	}
}

func TestHasPrefix(t *testing.T) {
	tests := []struct {
		v, p string
		want bool
	}{
		{"4.4.1", "4.4", true},
		{"4.4.1", "4.4.1", true},
		{"4.4.1", "4", true},
		{"4.4.1", "4.5", false},
		{"4.4", "4.4.1", false},
		{"1.2rc1", "1.2", true},
	}
	for _, tt := range tests {
		if got := Parse(tt.v).HasPrefix(Parse(tt.p)); got != tt.want {
			t.Errorf("%q.HasPrefix(%q) = %v, want %v", tt.v, tt.p, got, tt.want)
		}
	}
}

func TestParseRange(t *testing.T) {
	tests := []struct {
		in       string
		isSingle bool
		isAny    bool
		str      string
	}{
		{"1.2", true, false, "1.2"},
		{"1.2:1.4", false, false, "1.2:1.4"},
		{"1.2:", false, false, "1.2:"},
		{":1.4", false, false, ":1.4"},
		{":", false, true, ":"},
	}
	for _, tt := range tests {
		r, err := ParseRange(tt.in)
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", tt.in, err)
		}
		if r.IsSingle() != tt.isSingle {
			t.Errorf("ParseRange(%q).IsSingle() = %v", tt.in, r.IsSingle())
		}
		if r.IsAny() != tt.isAny {
			t.Errorf("ParseRange(%q).IsAny() = %v", tt.in, r.IsAny())
		}
		if r.String() != tt.str {
			t.Errorf("ParseRange(%q).String() = %q", tt.in, r.String())
		}
	}
	if _, err := ParseRange(""); err == nil {
		t.Error("ParseRange(\"\") should fail")
	}
}

func TestRangeContains(t *testing.T) {
	tests := []struct {
		r, v string
		want bool
	}{
		{"1.2:1.4", "1.3", true},
		{"1.2:1.4", "1.2", true},
		{"1.2:1.4", "1.4", true},
		{"1.2:1.4", "1.4.2", true}, // prefix semantics on endpoint
		{"1.2:1.4", "1.5", false},
		{"1.2:1.4", "1.1", false},
		{"2.3:", "2.3", true},
		{"2.3:", "99", true},
		{"2.3:", "2.2", false},
		{":8.1", "8.1", true},
		{":8.1", "8.1.2", true},
		{":8.1", "8.2", false},
		{":8.1", "1.0", true},
		{":", "anything", true},
		{"4.4", "4.4.1", true}, // point range admits refinements
		{"4.4", "4.5", false},
	}
	for _, tt := range tests {
		r, err := ParseRange(tt.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Contains(Parse(tt.v)); got != tt.want {
			t.Errorf("range %q Contains(%q) = %v, want %v", tt.r, tt.v, got, tt.want)
		}
	}
}

func TestRangeIntersect(t *testing.T) {
	tests := []struct {
		a, b string
		ok   bool
		want string
	}{
		{"1:3", "2:4", true, "2:3"},
		{"1:3", "4:5", false, ""},
		{":", "1:2", true, "1:2"},
		{"1:", ":5", true, "1:5"},
		{"2.5:4.4", "2.3:2.5.6", true, "2.5:2.5.6"},
		{"4.4", "4.4.1", true, "4.4.1"}, // refinement tightens both ends
		{"1.2", "1.3", false, ""},
	}
	for _, tt := range tests {
		a, _ := ParseRange(tt.a)
		b, _ := ParseRange(tt.b)
		got, ok := a.Intersect(b)
		if ok != tt.ok {
			t.Errorf("%q ∩ %q ok = %v, want %v", tt.a, tt.b, ok, tt.ok)
			continue
		}
		if ok && got.String() != tt.want {
			t.Errorf("%q ∩ %q = %q, want %q", tt.a, tt.b, got.String(), tt.want)
		}
		// Commutativity.
		got2, ok2 := b.Intersect(a)
		if ok2 != ok || (ok && got2.String() != got.String()) {
			t.Errorf("intersect not commutative for %q, %q", tt.a, tt.b)
		}
	}
}

func TestListParseAndString(t *testing.T) {
	tests := []struct{ in, want string }{
		{"1.2", "1.2"},
		{"1.2:1.4", "1.2:1.4"},
		{"1.2,2.0", "1.2,2.0"},
		{"2.0,1.2", "1.2,2.0"}, // normalized sort
		{"1:3,2:4", "1:4"},     // merged overlap
		{"1.2:1.4, 2.0", "1.2:1.4,2.0"},
	}
	for _, tt := range tests {
		l, err := ParseList(tt.in)
		if err != nil {
			t.Fatalf("ParseList(%q): %v", tt.in, err)
		}
		if l.String() != tt.want {
			t.Errorf("ParseList(%q).String() = %q, want %q", tt.in, l.String(), tt.want)
		}
	}
	if _, err := ParseList(""); err == nil {
		t.Error("ParseList(\"\") should fail")
	}
	if _, err := ParseList("1.2,,3"); err == nil {
		t.Error("ParseList with empty element should fail")
	}
}

func TestListContains(t *testing.T) {
	l, _ := ParseList("1.2:1.4,2.0")
	for _, v := range []string{"1.2", "1.3", "1.4", "1.4.9", "2.0", "2.0.1"} {
		if !l.Contains(Parse(v)) {
			t.Errorf("list should contain %q", v)
		}
	}
	for _, v := range []string{"1.1", "1.5", "2.1", "3"} {
		if l.Contains(Parse(v)) {
			t.Errorf("list should not contain %q", v)
		}
	}
}

func TestListIntersect(t *testing.T) {
	a, _ := ParseList("1:3,5:7")
	b, _ := ParseList("2:6")
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected nonempty intersection")
	}
	if got.String() != "2:3,5:6" {
		t.Errorf("got %q, want 2:3,5:6", got.String())
	}

	c, _ := ParseList("10:")
	if _, ok := a.Intersect(c); ok {
		t.Error("expected empty intersection")
	}

	// Any behaves as identity.
	if r, ok := (List{}).Intersect(a); !ok || r.String() != a.String() {
		t.Error("intersect with unconstrained should return other")
	}
}

func TestListSatisfies(t *testing.T) {
	tight, _ := ParseList("1.3")
	loose, _ := ParseList("1.2:1.4")
	if !tight.Satisfies(loose) {
		t.Error("1.3 should satisfy 1.2:1.4")
	}
	if loose.Satisfies(tight) {
		t.Error("1.2:1.4 should not satisfy 1.3")
	}
	if !tight.Satisfies(List{}) {
		t.Error("anything satisfies unconstrained")
	}
	if (List{}).Satisfies(tight) {
		t.Error("unconstrained does not satisfy a tight bound")
	}
}

func TestListConcrete(t *testing.T) {
	l, _ := ParseList("1.2.3")
	v, ok := l.Concrete()
	if !ok || v.String() != "1.2.3" {
		t.Errorf("Concrete() = %v, %v", v, ok)
	}
	l2, _ := ParseList("1.2:1.3")
	if _, ok := l2.Concrete(); ok {
		t.Error("range should not be concrete")
	}
	if _, ok := (List{}).Concrete(); ok {
		t.Error("unconstrained should not be concrete")
	}
}

func TestListHighest(t *testing.T) {
	l, _ := ParseList("1.2:2.0")
	cands := []Version{Parse("1.0"), Parse("1.5"), Parse("1.9"), Parse("2.5")}
	v, ok := l.Highest(cands)
	if !ok || v.String() != "1.9" {
		t.Errorf("Highest = %v, %v; want 1.9", v, ok)
	}
	l2, _ := ParseList("3:")
	if _, ok := l2.Highest(cands); ok {
		t.Error("expected no admitted candidate")
	}
}

// randomVersion generates structured random versions for property tests.
func randomVersion(r *rand.Rand) Version {
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		if r.Intn(6) == 0 {
			parts[i] = []string{"a", "b", "rc", "alpha", "beta"}[r.Intn(5)]
		} else {
			parts[i] = string(rune('0' + r.Intn(10)))
			if r.Intn(3) == 0 {
				parts[i] += string(rune('0' + r.Intn(10)))
			}
		}
	}
	return Parse(strings.Join(parts, "."))
}

type versionPair struct{ A, B Version }

func (versionPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(versionPair{randomVersion(r), randomVersion(r)})
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(p versionPair) bool {
		return p.A.Compare(p.B) == -p.B.Compare(p.A)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareReflexive(t *testing.T) {
	f := func(p versionPair) bool { return p.A.Compare(p.A) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type versionTriple struct{ A, B, C Version }

func (versionTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(versionTriple{randomVersion(r), randomVersion(r), randomVersion(r)})
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(p versionTriple) bool {
		if p.A.Compare(p.B) <= 0 && p.B.Compare(p.C) <= 0 {
			return p.A.Compare(p.C) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type rangePair struct {
	A, B Range
	V    Version
}

func (rangePair) Generate(r *rand.Rand, _ int) reflect.Value {
	mk := func() Range {
		switch r.Intn(4) {
		case 0:
			return Range{}
		case 1:
			return Range{Lo: randomVersion(r)}
		case 2:
			return Range{Hi: randomVersion(r)}
		default:
			a, b := randomVersion(r), randomVersion(r)
			if a.Compare(b) > 0 {
				a, b = b, a
			}
			return Range{Lo: a, Hi: b}
		}
	}
	return reflect.ValueOf(rangePair{mk(), mk(), randomVersion(r)})
}

// TestQuickIntersectSound checks v ∈ a∩b ⇒ v∈a ∧ v∈b.
func TestQuickIntersectSound(t *testing.T) {
	f := func(p rangePair) bool {
		isec, ok := p.A.Intersect(p.B)
		if !ok {
			return true
		}
		if isec.Contains(p.V) {
			return p.A.Contains(p.V) && p.B.Contains(p.V)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectCommutative checks a∩b == b∩a as strings.
func TestQuickIntersectCommutative(t *testing.T) {
	f := func(p rangePair) bool {
		x, okx := p.A.Intersect(p.B)
		y, oky := p.B.Intersect(p.A)
		if okx != oky {
			return false
		}
		return !okx || x.String() == y.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseRoundTrip checks ParseList(l.String()) == l.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(p rangePair) bool {
		l := ListOf(p.A, p.B)
		s := l.String()
		if s == "" {
			return true
		}
		l2, err := ParseList(s)
		if err != nil {
			return false
		}
		return l2.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	a, b := Parse("1.2"), Parse("2.0")
	if Min(a, b).String() != "1.2" || Min(b, a).String() != "1.2" {
		t.Error("Min wrong")
	}
	if Max(a, b).String() != "2.0" || Max(b, a).String() != "2.0" {
		t.Error("Max wrong")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse(\"\") should panic")
		}
	}()
	MustParse("")
}

func TestFormat(t *testing.T) {
	tests := []struct{ in, sep, want string }{
		{"1.2.3", "_", "1_2_3"},
		{"1.2.3", "-", "1-2-3"},
		{"2.4b2", ".", "2.4.b.2"},
		{"7", "_", "7"},
	}
	for _, tt := range tests {
		if got := Parse(tt.in).Format(tt.sep); got != tt.want {
			t.Errorf("Format(%q, %q) = %q, want %q", tt.in, tt.sep, got, tt.want)
		}
	}
}
