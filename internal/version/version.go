// Package version implements the version algebra underlying spec
// constraints: concrete versions, inclusive version ranges with open
// endpoints, and normalized version lists (unions of versions and ranges).
//
// The semantics follow the Spack paper (SC'15, §3.2.3): a constraint like
// @2.5.1 names a precise version, @2.5:4.4 an inclusive range, and @2.5: an
// open-ended one. Range endpoints use prefix semantics: version 4.4.1 lies
// inside :4.4 because it refines the endpoint 4.4.
package version

import (
	"fmt"
	"strconv"
	"strings"
)

// A Version is an immutable, dotted (or dashed/underscored) version
// identifier such as "1.2.3", "2.4b2", or "develop". Components are compared
// numerically when both are numeric, lexically when both are alphabetic, and
// numeric components order after alphabetic ones (so "1.2" > "1.2alpha").
type Version struct {
	raw  string
	segs []segment
}

// segment is one parsed component of a version string: either a number or a
// word. Mixed runs like "4b2" split into {4, "b", 2}.
type segment struct {
	num     uint64
	word    string
	numeric bool
}

// Parse converts a version string into a Version. It never fails: any
// nonempty string of identifier characters is a valid version (matching the
// grammar's <id> production). Empty strings yield the zero Version, which is
// invalid.
func Parse(s string) Version {
	return Version{raw: s, segs: segmentize(s)}
}

// MustParse is Parse with a validity check, for tests and package literals.
func MustParse(s string) Version {
	if s == "" {
		panic("version: MustParse of empty string")
	}
	return Parse(s)
}

// segmentize splits s into its numeric and word runs; separators start
// no run. The slice is sized by a first count of the runs, so it is
// allocated once.
func segmentize(s string) []segment {
	runs, kind := 0, 0 // kind of the previous byte: 0 separator, 1 digit, 2 letter
	for i := 0; i < len(s); i++ {
		k := 0
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			k = 1
		case isAlpha(c):
			k = 2
		}
		if k != 0 && k != kind {
			runs++
		}
		kind = k
	}
	if runs == 0 {
		return nil
	}
	segs := make([]segment, 0, runs)
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			n, _ := strconv.ParseUint(s[i:j], 10, 64)
			segs = append(segs, segment{num: n, numeric: true})
			i = j
		case isAlpha(c):
			j := i
			for j < len(s) && isAlpha(s[j]) {
				j++
			}
			segs = append(segs, segment{word: s[i:j]})
			i = j
		default: // separator: . - _
			i++
		}
	}
	return segs
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// String returns the original spelling of the version.
func (v Version) String() string { return v.raw }

// IsZero reports whether v is the invalid zero Version.
func (v Version) IsZero() bool { return v.raw == "" }

// Len returns the number of parsed components.
func (v Version) Len() int { return len(v.segs) }

// compareSegments orders two segments. Numeric segments sort after word
// segments of the same position (1.2 > 1.2alpha), mirroring common
// pre-release conventions.
func compareSegments(a, b segment) int {
	switch {
	case a.numeric && b.numeric:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case a.numeric && !b.numeric:
		return 1
	case !a.numeric && b.numeric:
		return -1
	default:
		return strings.Compare(a.word, b.word)
	}
}

// Compare orders two versions: -1 if v < w, 0 if equal, +1 if v > w.
// A version that is a strict prefix of another orders before it
// (1.2 < 1.2.1).
func (v Version) Compare(w Version) int {
	n := len(v.segs)
	if len(w.segs) < n {
		n = len(w.segs)
	}
	for i := 0; i < n; i++ {
		if c := compareSegments(v.segs[i], w.segs[i]); c != 0 {
			return c
		}
	}
	// One is a prefix of the other. A longer version whose next component is
	// numeric is a refinement and orders after (1.0.1 > 1.0); a word
	// component marks a pre-release and orders before (1.0alpha < 1.0).
	switch {
	case len(v.segs) < len(w.segs):
		if w.segs[n].numeric {
			return -1
		}
		return 1
	case len(v.segs) > len(w.segs):
		if v.segs[n].numeric {
			return 1
		}
		return -1
	}
	return 0
}

// Equal reports whether the versions have identical component sequences.
// ("1.0" and "1_0" are Equal even though their spellings differ.)
func (v Version) Equal(w Version) bool { return v.Compare(w) == 0 }

// HasPrefix reports whether w's components are a (possibly complete) prefix
// of v's: 4.4.1 has prefix 4.4 and prefix 4.4.1, but not 4.
// (4 is a prefix: 4.4.1 begins with component 4 — so HasPrefix(4) is true.)
func (v Version) HasPrefix(w Version) bool {
	if len(w.segs) > len(v.segs) {
		return false
	}
	for i := range w.segs {
		if compareSegments(v.segs[i], w.segs[i]) != 0 {
			return false
		}
	}
	return true
}

// Satisfies reports whether v, as a concrete version, meets the constraint
// version c. A constraint version is met by any version that refines it:
// concrete 1.2.3 satisfies constraint 1.2 (prefix semantics), but concrete
// 1.2 does not satisfy constraint 1.2.3.
func (v Version) Satisfies(c Version) bool { return v.HasPrefix(c) }

// Format re-renders the version with every separator replaced ("1.2.3"
// with "_" gives "1_2_3"), the transformation URL schemes need when a
// project spells versions differently in paths and file names.
func (v Version) Format(sep string) string {
	var b strings.Builder
	for i, s := range v.segs {
		if i > 0 {
			b.WriteString(sep)
		}
		if s.numeric {
			b.WriteString(strconv.FormatUint(s.num, 10))
		} else {
			b.WriteString(s.word)
		}
	}
	return b.String()
}

// Min returns the smaller of two versions.
func Min(a, b Version) Version {
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of two versions.
func Max(a, b Version) Version {
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}

// A Range is an inclusive version range with optional open endpoints,
// written lo:hi. The zero Range (both endpoints zero) matches every version
// and prints as ":".
//
// Endpoint containment uses prefix semantics: Range{"":"4.4"} contains
// 4.4.1, because 4.4.1 refines the upper endpoint.
type Range struct {
	Lo, Hi Version // zero Version means open
}

// SingleRange returns the range [v, v] (which, by prefix semantics, admits
// refinements of v as well).
func SingleRange(v Version) Range { return Range{Lo: v, Hi: v} }

// ParseRange parses "lo:hi", ":hi", "lo:", ":", or a single version "v"
// (treated as the point range [v,v]).
func ParseRange(s string) (Range, error) {
	if s == "" {
		return Range{}, fmt.Errorf("version: empty range")
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return SingleRange(Parse(s)), nil
	}
	var r Range
	if lo := s[:i]; lo != "" {
		r.Lo = Parse(lo)
	}
	if hi := s[i+1:]; hi != "" {
		r.Hi = Parse(hi)
	}
	return r, nil
}

// String renders the range in spec syntax.
func (r Range) String() string {
	if r.Lo.IsZero() && r.Hi.IsZero() {
		return ":"
	}
	if !r.Lo.IsZero() && !r.Hi.IsZero() && r.Lo.Equal(r.Hi) && r.Lo.raw == r.Hi.raw {
		return r.Lo.String()
	}
	return r.Lo.String() + ":" + r.Hi.String()
}

// IsAny reports whether the range admits every version.
func (r Range) IsAny() bool { return r.Lo.IsZero() && r.Hi.IsZero() }

// IsSingle reports whether the range is a point [v,v].
func (r Range) IsSingle() bool {
	return !r.Lo.IsZero() && !r.Hi.IsZero() && r.Lo.Equal(r.Hi)
}

// Contains reports whether v lies in the range, using inclusive endpoints
// with prefix semantics.
func (r Range) Contains(v Version) bool {
	if !r.Lo.IsZero() {
		if v.Compare(r.Lo) < 0 && !v.HasPrefix(r.Lo) {
			return false
		}
	}
	if !r.Hi.IsZero() {
		if v.Compare(r.Hi) > 0 && !v.HasPrefix(r.Hi) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two ranges admit a common version.
func (r Range) Overlaps(o Range) bool {
	_, ok := r.Intersect(o)
	return ok
}

// Intersect returns the largest range admitted by both r and o, and whether
// such a range exists. Endpoint prefix semantics are respected: [4.4, 4.4]
// and [4.4.1, 4.4.1] intersect to [4.4.1, 4.4.1].
func (r Range) Intersect(o Range) (Range, bool) {
	lo, hi := r.Lo, r.Hi
	// Tighter lower bound wins; a refinement (prefix match) is tighter.
	if lo.IsZero() || (!o.Lo.IsZero() && tighterLo(o.Lo, lo)) {
		if !o.Lo.IsZero() {
			lo = o.Lo
		}
	}
	if hi.IsZero() || (!o.Hi.IsZero() && tighterHi(o.Hi, hi)) {
		if !o.Hi.IsZero() {
			hi = o.Hi
		}
	}
	res := Range{Lo: lo, Hi: hi}
	if !lo.IsZero() && !hi.IsZero() {
		if lo.Compare(hi) > 0 && !lo.HasPrefix(hi) && !hi.HasPrefix(lo) {
			return Range{}, false
		}
	}
	return res, true
}

// tighterLo reports whether candidate is a tighter (greater or more refined)
// lower bound than current.
func tighterLo(candidate, current Version) bool {
	if candidate.Equal(current) {
		// Componentwise-equal spellings ("8" vs "08"): tie-break on the
		// raw string so intersection stays commutative.
		return candidate.String() < current.String()
	}
	if current.HasPrefix(candidate) {
		return false // current already refines candidate
	}
	if candidate.HasPrefix(current) {
		return true // refinement of the current bound
	}
	return candidate.Compare(current) > 0
}

// tighterHi reports whether candidate is a tighter (smaller or more refined)
// upper bound than current.
func tighterHi(candidate, current Version) bool {
	if candidate.Equal(current) {
		return candidate.String() < current.String()
	}
	if current.HasPrefix(candidate) {
		return false
	}
	if candidate.HasPrefix(current) {
		return true
	}
	return candidate.Compare(current) < 0
}

// A List is a normalized union of ranges: sorted by lower bound, pairwise
// disjoint and non-adjacent. The nil/empty List means "unconstrained"
// (matches anything), mirroring a spec with no @ clause.
type List struct {
	ranges []Range
}

// ParseList parses a comma-separated version-list constraint such as
// "1.2:1.4,2.0,3:" into a normalized List.
func ParseList(s string) (List, error) {
	if s == "" {
		return List{}, fmt.Errorf("version: empty version list")
	}
	var l List
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return List{}, fmt.Errorf("version: empty element in list %q", s)
		}
		r, err := ParseRange(part)
		if err != nil {
			return List{}, err
		}
		l = l.Add(r)
	}
	return l, nil
}

// ListOf builds a List from ranges.
func ListOf(ranges ...Range) List {
	var l List
	for _, r := range ranges {
		l = l.Add(r)
	}
	return l
}

// ExactList returns the list containing only the point range of v.
func ExactList(v Version) List { return List{ranges: []Range{SingleRange(v)}} }

// IsAny reports whether the list is unconstrained.
func (l List) IsAny() bool {
	if len(l.ranges) == 0 {
		return true
	}
	for _, r := range l.ranges {
		if r.IsAny() {
			return true
		}
	}
	return false
}

// Ranges returns a copy of the normalized ranges.
func (l List) Ranges() []Range {
	out := make([]Range, len(l.ranges))
	copy(out, l.ranges)
	return out
}

// Add unions one more range into the list, merging overlaps.
func (l List) Add(r Range) List {
	if r.IsAny() {
		return List{ranges: []Range{{}}}
	}
	merged := r
	var out []Range
	for _, existing := range l.ranges {
		if u, ok := union(merged, existing); ok {
			merged = u
		} else {
			out = append(out, existing)
		}
	}
	// Insert keeping sort order by lower bound (open lo sorts first).
	pos := len(out)
	for i, e := range out {
		if rangeLess(merged, e) {
			pos = i
			break
		}
	}
	out = append(out, Range{})
	copy(out[pos+1:], out[pos:])
	out[pos] = merged
	return List{ranges: out}
}

func rangeLess(a, b Range) bool {
	switch {
	case a.Lo.IsZero() && b.Lo.IsZero():
		return a.Hi.Compare(b.Hi) < 0
	case a.Lo.IsZero():
		return true
	case b.Lo.IsZero():
		return false
	}
	return a.Lo.Compare(b.Lo) < 0
}

// union merges two ranges when they overlap; it does not attempt to merge
// merely adjacent ranges (version adjacency is not well defined).
//
// Endpoint selection must respect prefix semantics: as an upper bound,
// "rc" admits every rc.* and is therefore broader than "rc.5.1" even
// though it compares smaller — the union keeps the broader endpoint.
func union(a, b Range) (Range, bool) {
	if !a.Overlaps(b) {
		return Range{}, false
	}
	var lo, hi Version
	if !a.Lo.IsZero() && !b.Lo.IsZero() {
		lo = broaderBound(a.Lo, b.Lo, false)
	}
	if !a.Hi.IsZero() && !b.Hi.IsZero() {
		hi = broaderBound(a.Hi, b.Hi, true)
	}
	return Range{Lo: lo, Hi: hi}, true
}

// broaderBound picks the endpoint admitting more versions. A version that
// is a componentwise prefix of the other is broader on either end (it
// admits every refinement); otherwise the larger wins for upper bounds
// and the smaller for lower bounds.
func broaderBound(a, b Version, upper bool) Version {
	switch {
	case a.Equal(b):
		if a.String() <= b.String() {
			return a
		}
		return b
	case b.HasPrefix(a): // a is the shorter prefix -> broader
		return a
	case a.HasPrefix(b):
		return b
	}
	if upper {
		return Max(a, b)
	}
	return Min(a, b)
}

// Intersect returns the list admitted by both l and o, and whether it is
// nonempty. Intersecting with an unconstrained list returns the other list.
func (l List) Intersect(o List) (List, bool) {
	if l.IsAny() {
		return o, true
	}
	if o.IsAny() {
		return l, true
	}
	var out List
	any := false
	for _, a := range l.ranges {
		for _, b := range o.ranges {
			if isec, ok := a.Intersect(b); ok {
				out = out.Add(isec)
				any = true
			}
		}
	}
	if !any {
		return List{}, false
	}
	return out, true
}

// Contains reports whether concrete version v is admitted by the list.
func (l List) Contains(v Version) bool {
	if l.IsAny() {
		return true
	}
	for _, r := range l.ranges {
		if r.Contains(v) {
			return true
		}
	}
	return false
}

// Satisfies reports whether every version admitted by l is plausibly
// admitted by o — the spec-constraint compatibility check. For constraint
// solving we use the overlap interpretation from the paper's concretizer:
// two version constraints are compatible when their intersection is
// nonempty, and l satisfies o when l ∩ o == l (l is at least as tight).
func (l List) Satisfies(o List) bool {
	if o.IsAny() {
		return true
	}
	if l.IsAny() {
		return false
	}
	isec, ok := l.Intersect(o)
	if !ok {
		return false
	}
	return isec.String() == l.String()
}

// Compatible reports whether the two constraints can hold simultaneously.
func (l List) Compatible(o List) bool {
	_, ok := l.Intersect(o)
	return ok
}

// Concrete returns the single exact version the list pins down, if any.
func (l List) Concrete() (Version, bool) {
	if len(l.ranges) != 1 {
		return Version{}, false
	}
	r := l.ranges[0]
	if r.IsSingle() {
		return r.Lo, true
	}
	return Version{}, false
}

// Highest returns the highest version from candidates admitted by the list,
// used by concretization policies that prefer new versions.
func (l List) Highest(candidates []Version) (Version, bool) {
	var best Version
	found := false
	for _, c := range candidates {
		if !l.Contains(c) {
			continue
		}
		if !found || c.Compare(best) > 0 {
			best, found = c, true
		}
	}
	return best, found
}

// String renders the list in spec syntax ("1.2:1.4,2.0").
func (l List) String() string {
	switch len(l.ranges) {
	case 0:
		return ""
	case 1:
		return l.ranges[0].String()
	}
	return string(l.AppendTo(nil))
}

// AppendTo appends the list's String rendering to dst.
func (l List) AppendTo(dst []byte) []byte {
	for i, r := range l.ranges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r.String()...)
	}
	return dst
}
