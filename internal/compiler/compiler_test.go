package compiler

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
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

func TestRegistryAddReplace(t *testing.T) {
	r := NewRegistry()
	r.Add(Toolchain{Name: "gcc", Version: version.Parse("4.9.2"), CC: "/old/gcc"})
	r.Add(Toolchain{Name: "gcc", Version: version.Parse("4.9.2"), CC: "/new/gcc"})
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.All()[0].CC; got != "/new/gcc" {
		t.Errorf("CC = %q, re-add should replace", got)
	}
}

func TestFindByConstraint(t *testing.T) {
	r := LLNLRegistry()
	// All gccs, newest first.
	gccs := r.Find(spec.Compiler{Name: "gcc"}, "linux-x86_64")
	if len(gccs) != 3 || gccs[0].Version.String() != "4.9.2" {
		t.Errorf("gccs = %v", gccs)
	}
	// Version-constrained.
	got := r.Find(spec.Compiler{Name: "gcc", Versions: mustList(t, "4.7:")}, "linux-x86_64")
	if len(got) != 2 {
		t.Errorf("gcc@4.7: = %v", got)
	}
	// Arch-filtered: xl only targets bgq.
	if got := r.Find(spec.Compiler{Name: "xl"}, "linux-x86_64"); len(got) != 0 {
		t.Errorf("xl on linux = %v", got)
	}
	if got := r.Find(spec.Compiler{Name: "xl"}, "bgq"); len(got) != 1 {
		t.Errorf("xl on bgq = %v", got)
	}
	// Empty constraint matches all for the arch.
	all := r.Find(spec.Compiler{}, "bgq")
	if len(all) != 2 { // clang + xl
		t.Errorf("bgq toolchains = %v", all)
	}
}

func TestDefaultPrefersGCC(t *testing.T) {
	r := LLNLRegistry()
	d, ok := r.Default("linux-x86_64")
	if !ok || d.Name != "gcc" || d.Version.String() != "4.9.2" {
		t.Errorf("default = %v, %v", d, ok)
	}
	// On bgq there is no gcc: newest supporting toolchain wins.
	d, ok = r.Default("bgq")
	if !ok || (d.Name != "clang" && d.Name != "xl") {
		t.Errorf("bgq default = %v, %v", d, ok)
	}
	_, ok = r.Default("no-such-arch")
	if ok {
		t.Error("unknown arch should have no default")
	}
}

func TestToolchainSpec(t *testing.T) {
	tc := Toolchain{Name: "intel", Version: version.Parse("14.0.1")}
	s := tc.Spec()
	if !s.Concrete() || s.String() != "intel@14.0.1" {
		t.Errorf("Spec = %v", s)
	}
	if tc.String() != "intel@14.0.1" {
		t.Errorf("String = %q", tc.String())
	}
}

func TestSupports(t *testing.T) {
	host := Toolchain{Name: "gcc"}
	if !host.Supports("linux-x86_64") || !host.Supports("") {
		t.Error("host toolchain should support host arch")
	}
	if host.Supports("bgq") {
		t.Error("host toolchain should not support bgq")
	}
	cross := Toolchain{Name: "xl", Targets: []string{"bgq"}}
	if !cross.Supports("bgq") || cross.Supports("linux-x86_64") {
		t.Error("cross toolchain targets wrong")
	}
}

func TestDetectFromPATH(t *testing.T) {
	dirs := map[string][]string{
		"/usr/bin": {
			"gcc-4.9.2", "g++-4.9.2", "gfortran-4.9.2",
			"gcc-4.4.7", "g++-4.4.7",
			"clang-3.5.0", "clang++-3.5.0",
			"ls", "cat", "gcc", // unversioned and unrelated files ignored
		},
		"/opt/intel/bin": {"icc-14.0.1", "icpc-14.0.1", "ifort-14.0.1"},
	}
	found := DetectFromPATH(dirs)
	byKey := make(map[string]Toolchain)
	for _, tc := range found {
		byKey[tc.String()] = tc
	}
	gcc, ok := byKey["gcc@4.9.2"]
	if !ok || gcc.CC != "/usr/bin/gcc-4.9.2" || gcc.CXX != "/usr/bin/g++-4.9.2" ||
		gcc.FC != "/usr/bin/gfortran-4.9.2" || gcc.F77 != gcc.FC {
		t.Errorf("gcc@4.9.2 = %+v (ok=%v)", gcc, ok)
	}
	if _, ok := byKey["gcc@4.4.7"]; !ok {
		t.Error("second gcc version not detected")
	}
	if _, ok := byKey["clang@3.5.0"]; !ok {
		t.Error("clang not detected")
	}
	intel, ok := byKey["intel@14.0.1"]
	if !ok || intel.CC != "/opt/intel/bin/icc-14.0.1" {
		t.Errorf("intel = %+v", intel)
	}
	// Sorted: name asc, version desc.
	for i := 1; i < len(found); i++ {
		a, b := found[i-1], found[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Version.Compare(b.Version) < 0) {
			t.Errorf("unsorted detection output at %d: %v then %v", i, a, b)
		}
	}
}

func TestDetectIgnoresCXXOnly(t *testing.T) {
	// A directory with only a C++ driver yields no toolchain (needs CC).
	found := DetectFromPATH(map[string][]string{"/x": {"g++-5.1.0"}})
	if len(found) != 0 {
		t.Errorf("found = %v", found)
	}
}

func TestSplitVersionSuffix(t *testing.T) {
	tests := []struct{ in, base, ver string }{
		{"gcc-4.9.2", "gcc", "4.9.2"},
		{"clang++-3.5.0", "clang++", "3.5.0"},
		{"gcc", "gcc", ""},
		{"pgc++", "pgc++", ""},
		{"gcc-", "gcc-", ""},
	}
	for _, tt := range tests {
		b, v := splitVersionSuffix(tt.in)
		if b != tt.base || v != tt.ver {
			t.Errorf("splitVersionSuffix(%q) = %q, %q", tt.in, b, v)
		}
	}
}

func TestLLNLRegistryComplete(t *testing.T) {
	r := LLNLRegistry()
	for _, want := range []string{"gcc", "intel", "pgi", "clang", "xl"} {
		if len(r.Find(spec.Compiler{Name: want}, "")) == 0 &&
			len(r.Find(spec.Compiler{Name: want}, "bgq")) == 0 &&
			len(r.Find(spec.Compiler{Name: want}, "cray-xe6")) == 0 {
			t.Errorf("LLNL registry missing %s", want)
		}
	}
}

// oracleFind is Find as it was before the registry kept its toolchains
// sorted: copy, sort, then filter.
func oracleFind(ts []Toolchain, c spec.Compiler, arch string) []Toolchain {
	all := append([]Toolchain(nil), ts...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Name != all[j].Name {
			return all[i].Name < all[j].Name
		}
		return all[i].Version.Compare(all[j].Version) > 0
	})
	var out []Toolchain
	for _, t := range all {
		if c.Name != "" && t.Name != c.Name {
			continue
		}
		if !c.Versions.IsAny() && !c.Versions.Contains(t.Version) {
			continue
		}
		if arch != "" && !t.Supports(arch) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// permutations calls f with every ordering of ts (Heap's algorithm).
func permutations(ts []Toolchain, f func([]Toolchain)) {
	ts = append([]Toolchain(nil), ts...)
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(ts)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				ts[i], ts[k-1] = ts[k-1], ts[i]
			} else {
				ts[0], ts[k-1] = ts[k-1], ts[0]
			}
		}
		gen(k - 1)
	}
	gen(len(ts))
}

// names renders a Find answer as its toolchains' C compiler paths in
// order; each LLNL toolchain has its own.
func names(ts []Toolchain) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.CC)
		b.WriteByte(' ')
	}
	return b.String()
}

func registryOf(ts []Toolchain) *Registry {
	r := NewRegistry()
	for _, t := range ts {
		r.Add(t)
	}
	return r
}

// featureSets are the feature requirements Has is queried with: none,
// single features some toolchains lack, a pair, and one no toolchain has.
var featureSets = [][]string{nil, {"cxx14"}, {"openmp4"}, {"cxx14", "openmp4"}, {"fortran2008"}}

// oracleHas is Has as the concretizer computed it before: filter Find's
// answer by HasFeatures and test that something is left.
func oracleHas(found []Toolchain, features []string) bool {
	n := 0
	for _, t := range found {
		if t.HasFeatures(features) {
			n++
		}
	}
	return n > 0
}

// TestRegistryInsertionOrder builds the LLNL registry from every ordering
// of its toolchains: All, Find, Has, Default and Fingerprint must not
// depend on the order of Add calls, Find must match the copy-sort-filter
// oracle, and Has must agree with filtering that answer by features.
func TestRegistryInsertionOrder(t *testing.T) {
	ref := LLNLRegistry()
	all := ref.All()
	if len(all) != 8 {
		t.Fatalf("LLNL registry has %d toolchains, want 8", len(all))
	}
	type query struct {
		c    spec.Compiler
		arch string
		want string
		has  []bool // oracleHas per featureSets entry
	}
	var queries []query
	for _, c := range []spec.Compiler{
		{},
		{Name: "gcc"},
		{Name: "gcc", Versions: mustList(t, "4.7:")},
		{Name: "gcc", Versions: mustList(t, "4.9.2")},
		{Name: "intel", Versions: mustList(t, ":14")},
		{Name: "clang", Versions: mustList(t, "3.5.0")},
		{Name: "nosuchcc"},
	} {
		for _, arch := range []string{"", "linux-x86_64", "bgq", "cray-xe6", "no-such-arch"} {
			found := oracleFind(all, c, arch)
			q := query{c: c, arch: arch, want: names(found)}
			for _, fs := range featureSets {
				q.has = append(q.has, oracleHas(found, fs))
			}
			queries = append(queries, q)
		}
	}
	arches := []string{"linux-x86_64", "bgq", "cray-xe6", "no-such-arch"}
	defaults := make([]string, len(arches))
	for i, arch := range arches {
		d, _ := ref.Default(arch)
		defaults[i] = d.CC
	}
	fp := ref.Fingerprint()
	orders := 0
	permutations(all, func(ts []Toolchain) {
		orders++
		r := registryOf(ts)
		if got := r.All(); !reflect.DeepEqual(got, all) {
			t.Fatalf("order %d: All = %v, want %v", orders, got, all)
		}
		for _, q := range queries {
			if got := names(r.Find(q.c, q.arch)); got != q.want {
				t.Fatalf("order %d: Find(%v, %q) = %v, oracle %v", orders, q.c, q.arch, got, q.want)
			}
			for i, fs := range featureSets {
				if got := r.Has(q.c, q.arch, fs); got != q.has[i] {
					t.Fatalf("order %d: Has(%v, %q, %v) = %v, oracle %v", orders, q.c, q.arch, fs, got, q.has[i])
				}
			}
		}
		for i, arch := range arches {
			if got, _ := r.Default(arch); got.CC != defaults[i] {
				t.Fatalf("order %d: Default(%q) = %v, want %s", orders, arch, got, defaults[i])
			}
		}
		if got := r.Fingerprint(); got != fp {
			t.Fatalf("order %d: Fingerprint = %s, want %s", orders, got, fp)
		}
	})
	if orders != 40320 {
		t.Errorf("checked %d orders, want 8! = 40320", orders)
	}
}

// TestRegistryHasAllocatesNothing: the pinned-compiler check runs at every
// concrete node of every solve pass, so it must not copy toolchains.
func TestRegistryHasAllocatesNothing(t *testing.T) {
	r := LLNLRegistry()
	c := spec.Compiler{Name: "intel", Versions: mustList(t, "15.0.2")}
	features := []string{"cxx14", "openmp4"}
	if !r.Has(c, "linux-x86_64", features) {
		t.Fatal("intel@15.0.2 with cxx14+openmp4 not found")
	}
	if n := testing.AllocsPerRun(100, func() { r.Has(c, "linux-x86_64", features) }); n != 0 {
		t.Errorf("Has allocates %.0f times per call, want 0", n)
	}
}

// TestRegistryFingerprintFollowsAdd checks the cached fingerprint: adding or
// replacing a toolchain changes it, and the result equals the fingerprint
// of a registry built fresh from the same toolchains.
func TestRegistryFingerprintFollowsAdd(t *testing.T) {
	r := LLNLRegistry()
	before := r.Fingerprint()
	if again := r.Fingerprint(); again != before {
		t.Fatalf("Fingerprint not stable: %s then %s", before, again)
	}

	// Replace gcc@4.9.2 with a build that lacks OpenMP 4.
	gcc := r.Find(spec.Compiler{Name: "gcc", Versions: mustList(t, "4.9.2")}, "")[0]
	gcc.Features = []string{"c99", "cxx11", "cxx14", "openmp3"}
	r.Add(gcc)
	replaced := r.Fingerprint()
	if replaced == before {
		t.Error("replacing a toolchain left Fingerprint unchanged")
	}
	if r.Len() != 8 {
		t.Errorf("Len = %d after replace, want 8", r.Len())
	}
	if fresh := registryOf(r.All()); fresh.Fingerprint() != replaced || !reflect.DeepEqual(fresh.All(), r.All()) {
		t.Error("replaced registry differs from a fresh one with the same toolchains")
	}

	// A new toolchain changes it again.
	r.Add(Toolchain{Name: "gcc", Version: version.Parse("5.1.0"), CC: "/usr/bin/gcc-5.1.0"})
	if added := r.Fingerprint(); added == replaced || added == before {
		t.Error("adding a toolchain left Fingerprint unchanged")
	}
	if d, _ := r.Default("linux-x86_64"); d.Version.String() != "5.1.0" {
		t.Errorf("Default = %v, want the new gcc@5.1.0", d)
	}
	if fresh := registryOf(r.All()); fresh.Fingerprint() != r.Fingerprint() {
		t.Error("grown registry differs from a fresh one with the same toolchains")
	}
}
