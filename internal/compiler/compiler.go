// Package compiler models compiler toolchains (SC'15 §3.2.3): a named
// toolchain bundles the C, C++, Fortran 77 and Fortran 90 compilers of one
// vendor at one version ("Spack compiler names like gcc refer to the full
// compiler toolchain"). The registry supports auto-detection from a
// simulated PATH and manual registration through configuration, and answers
// the concretizer's queries for toolchains matching a compiler constraint.
package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/spec"
	"repro/internal/version"
)

// Toolchain is one installed compiler suite.
type Toolchain struct {
	Name    string // gcc, intel, clang, xl, pgi, ...
	Version version.Version
	CC      string // path to the C compiler driver
	CXX     string
	F77     string
	FC      string
	// Target architectures this toolchain can emit code for; empty means
	// host-only. Cross toolchains (bgq, cray) list their back-end arch.
	Targets []string
	// Features lists language/runtime capabilities the toolchain supports
	// ("c99", "cxx11", "cxx14", "openmp3", "openmp4", ...). §4.5 flags
	// feature-aware compiler selection as future work ("codes are relying
	// on advanced compiler capabilities, like C++11 language features,
	// OpenMP versions"); the concretizer enforces these.
	Features []string

	// id is Spec's result, built once when the toolchain is registered.
	// Every node that picks the toolchain shares it: a version.List is
	// never changed in place.
	id spec.Compiler
}

// HasFeature reports whether the toolchain supports a named capability.
func (t Toolchain) HasFeature(name string) bool {
	for _, f := range t.Features {
		if f == name {
			return true
		}
	}
	return false
}

// HasFeatures reports whether the toolchain supports all named
// capabilities.
func (t Toolchain) HasFeatures(names []string) bool {
	for _, n := range names {
		if !t.HasFeature(n) {
			return false
		}
	}
	return true
}

// Spec returns the toolchain's identity as a concrete compiler constraint.
func (t Toolchain) Spec() spec.Compiler {
	if t.id.Name != "" {
		return t.id
	}
	return spec.Compiler{Name: t.Name, Versions: version.ExactList(t.Version)}
}

// Supports reports whether the toolchain can target an architecture.
func (t Toolchain) Supports(arch string) bool {
	if len(t.Targets) == 0 {
		return arch == "" || arch == "linux-x86_64"
	}
	for _, a := range t.Targets {
		if a == arch {
			return true
		}
	}
	return false
}

func (t Toolchain) String() string {
	return fmt.Sprintf("%s@%s", t.Name, t.Version)
}

// Registry holds the known toolchains, kept sorted by name, then
// descending version.
type Registry struct {
	mu         sync.RWMutex
	toolchains []Toolchain
	// fp caches Fingerprint until the next Add; "" means not computed.
	fp string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// toolchainLess orders toolchains by name, then newest version first.
func toolchainLess(a, b Toolchain) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Version.Compare(b.Version) > 0
}

// Add registers a toolchain; duplicate (name, version) pairs are replaced.
func (r *Registry) Add(t Toolchain) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fp = ""
	t.id = spec.Compiler{Name: t.Name, Versions: version.ExactList(t.Version)}
	i := sort.Search(len(r.toolchains), func(i int) bool { return !toolchainLess(r.toolchains[i], t) })
	if i < len(r.toolchains) && r.toolchains[i].Name == t.Name && r.toolchains[i].Version.Equal(t.Version) {
		r.toolchains[i] = t
		return
	}
	r.toolchains = slices.Insert(r.toolchains, i, t)
}

// All returns the toolchains sorted by name, then descending version.
func (r *Registry) All() []Toolchain {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.toolchains)
}

// Find returns the toolchains satisfying a compiler constraint (and target
// arch, when nonempty), newest first. A zero constraint matches everything.
func (r *Registry) Find(c spec.Compiler, arch string) []Toolchain {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Toolchain
	for _, t := range r.toolchains {
		if t.matches(c, arch) {
			out = append(out, t)
		}
	}
	return out
}

// matches is Find's filter: t satisfies constraint c and, when arch is
// nonempty, targets arch.
func (t Toolchain) matches(c spec.Compiler, arch string) bool {
	if c.Name != "" && t.Name != c.Name {
		return false
	}
	if !c.Versions.IsAny() && !c.Versions.Contains(t.Version) {
		return false
	}
	return arch == "" || t.Supports(arch)
}

// Has reports whether some toolchain Find(c, arch) would return also has
// every named feature. It copies no toolchain.
func (r *Registry) Has(c spec.Compiler, arch string, features []string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.toolchains {
		if t.matches(c, arch) && t.HasFeatures(features) {
			return true
		}
	}
	return false
}

// Default returns the preferred fallback toolchain for an architecture:
// the newest gcc that supports it, else the newest supporting toolchain.
func (r *Registry) Default(arch string) (Toolchain, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	first := -1
	for i, t := range r.toolchains {
		if !t.matches(spec.Compiler{}, arch) {
			continue
		}
		if t.Name == "gcc" {
			return t, true
		}
		if first < 0 {
			first = i
		}
	}
	if first < 0 {
		return Toolchain{}, false
	}
	return r.toolchains[first], true
}

// Fingerprint returns a stable hash over every registered toolchain —
// name, version, targets, and features — the compiler-registry component of
// the concretizer's memo-cache key: registering or replacing a toolchain
// invalidates cached concretization results automatically. The hash is
// computed once per registry state.
func (r *Registry) Fingerprint() string {
	r.mu.RLock()
	fp := r.fp
	r.mu.RUnlock()
	if fp != "" {
		return fp
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fp == "" {
		var b strings.Builder
		for _, t := range r.toolchains {
			fmt.Fprintf(&b, "%s@%s targets=%s features=%s\n",
				t.Name, t.Version, strings.Join(t.Targets, ","), strings.Join(t.Features, ","))
		}
		sum := sha256.Sum256([]byte(b.String()))
		r.fp = hex.EncodeToString(sum[:])
	}
	return r.fp
}

// Len reports the number of registered toolchains.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.toolchains)
}

// DetectFromPATH simulates §3.2.3's auto-detection of compiler toolchains
// in the user's PATH: it scans directory listings (path -> executables) for
// known driver names with version suffixes, e.g. "gcc-4.9.2", "icc-14.0.1",
// and assembles full toolchains from the pieces found in the same
// directory.
func DetectFromPATH(dirs map[string][]string) []Toolchain {
	type key struct{ name, ver, dir string }
	found := make(map[key]*Toolchain)

	drivers := map[string][2]string{ // driver basename -> (toolchain, role)
		"gcc":       {"gcc", "CC"},
		"g++":       {"gcc", "CXX"},
		"gfortran":  {"gcc", "FC"},
		"icc":       {"intel", "CC"},
		"icpc":      {"intel", "CXX"},
		"ifort":     {"intel", "FC"},
		"clang":     {"clang", "CC"},
		"clang++":   {"clang", "CXX"},
		"xlc":       {"xl", "CC"},
		"xlC":       {"xl", "CXX"},
		"xlf":       {"xl", "FC"},
		"pgcc":      {"pgi", "CC"},
		"pgc++":     {"pgi", "CXX"},
		"pgfortran": {"pgi", "FC"},
	}

	for dir, files := range dirs {
		for _, f := range files {
			base, ver := splitVersionSuffix(f)
			info, ok := drivers[base]
			if !ok || ver == "" {
				continue
			}
			k := key{info[0], ver, dir}
			tc := found[k]
			if tc == nil {
				tc = &Toolchain{Name: info[0], Version: version.Parse(ver)}
				found[k] = tc
			}
			full := dir + "/" + f
			switch info[1] {
			case "CC":
				tc.CC = full
			case "CXX":
				tc.CXX = full
			case "FC":
				tc.FC = full
				if tc.F77 == "" {
					tc.F77 = full
				}
			}
		}
	}

	var out []Toolchain
	for _, tc := range found {
		if tc.CC != "" { // a toolchain needs at least a C compiler
			out = append(out, *tc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return toolchainLess(out[i], out[j]) })
	return out
}

// splitVersionSuffix splits "gcc-4.9.2" into ("gcc", "4.9.2"). Names
// without a dashed version suffix return an empty version.
func splitVersionSuffix(file string) (base, ver string) {
	i := strings.LastIndexByte(file, '-')
	if i < 0 {
		return file, ""
	}
	suffix := file[i+1:]
	if suffix == "" || suffix[0] < '0' || suffix[0] > '9' {
		return file, ""
	}
	return file[:i], suffix
}

// LLNLRegistry builds the toolchain set of the paper's evaluation machines
// (Table 3): gcc, intel 14/15, pgi and clang on Linux; clang and xl
// cross-compilers for Blue Gene/Q; gcc/intel/pgi for the Cray XE6.
func LLNLRegistry() *Registry {
	r := NewRegistry()
	linux := []string{"linux-x86_64", "cray-xe6"}
	add := func(name, ver string, targets []string, cc, cxx, fc string, features ...string) {
		r.Add(Toolchain{
			Name: name, Version: version.Parse(ver),
			CC: cc, CXX: cxx, F77: fc, FC: fc,
			Targets: targets, Features: features,
		})
	}
	add("gcc", "4.4.7", linux, "/usr/bin/gcc-4.4.7", "/usr/bin/g++-4.4.7", "/usr/bin/gfortran-4.4.7",
		"c99", "openmp3")
	add("gcc", "4.7.3", linux, "/usr/bin/gcc-4.7.3", "/usr/bin/g++-4.7.3", "/usr/bin/gfortran-4.7.3",
		"c99", "cxx11", "openmp3")
	add("gcc", "4.9.2", linux, "/usr/bin/gcc-4.9.2", "/usr/bin/g++-4.9.2", "/usr/bin/gfortran-4.9.2",
		"c99", "cxx11", "cxx14", "openmp3", "openmp4")
	add("intel", "14.0.1", linux, "/opt/intel/14/bin/icc", "/opt/intel/14/bin/icpc", "/opt/intel/14/bin/ifort",
		"c99", "cxx11", "openmp3")
	add("intel", "15.0.2", linux, "/opt/intel/15/bin/icc", "/opt/intel/15/bin/icpc", "/opt/intel/15/bin/ifort",
		"c99", "cxx11", "cxx14", "openmp3", "openmp4")
	add("pgi", "14.10", linux, "/opt/pgi/bin/pgcc", "/opt/pgi/bin/pgc++", "/opt/pgi/bin/pgfortran",
		"c99", "openmp3")
	add("clang", "3.5.0", []string{"linux-x86_64", "bgq"}, "/usr/bin/clang-3.5.0", "/usr/bin/clang++-3.5.0", "",
		"c99", "cxx11", "cxx14")
	add("xl", "12.1", []string{"bgq"}, "/opt/ibm/xlc", "/opt/ibm/xlC", "/opt/ibm/xlf",
		"c99", "openmp3")
	return r
}
