package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

func TestDefaultArchFallback(t *testing.T) {
	c := New()
	if got := c.DefaultArch(); got != "linux-x86_64" {
		t.Errorf("default arch = %q", got)
	}
	c.Site.SetDefaultArch("bgq")
	if got := c.DefaultArch(); got != "bgq" {
		t.Errorf("site arch = %q", got)
	}
	c.User.SetDefaultArch("cray-xe6")
	if got := c.DefaultArch(); got != "cray-xe6" {
		t.Errorf("user arch should win, got %q", got)
	}
}

func TestSetCompilerOrder(t *testing.T) {
	s := NewScope()
	// The exact example from §4.3.1.
	if err := s.SetCompilerOrder("icc,gcc@4.6.1"); err != nil {
		t.Fatal(err)
	}
	if len(s.compilerOrder) != 2 {
		t.Fatalf("order = %v", s.compilerOrder)
	}
	if s.compilerOrder[0].Name != "icc" || !s.compilerOrder[0].Versions.IsAny() {
		t.Errorf("first = %v", s.compilerOrder[0])
	}
	if s.compilerOrder[1].Name != "gcc" || s.compilerOrder[1].Versions.String() != "4.6.1" {
		t.Errorf("second = %v", s.compilerOrder[1])
	}
	if err := s.SetCompilerOrder("!!bad"); err == nil {
		t.Error("bad compiler order should fail")
	}
}

func TestCompilerRank(t *testing.T) {
	c := New()
	c.Site.SetCompilerOrder("icc,gcc@4.6.1")

	icc := spec.Compiler{Name: "icc", Versions: version.ExactList(version.Parse("14.0"))}
	gcc461 := spec.Compiler{Name: "gcc", Versions: version.ExactList(version.Parse("4.6.1"))}
	gcc49 := spec.Compiler{Name: "gcc", Versions: version.ExactList(version.Parse("4.9.2"))}
	xl := spec.Compiler{Name: "xl", Versions: version.ExactList(version.Parse("12.1"))}

	if !(c.CompilerRank(icc) < c.CompilerRank(gcc461)) {
		t.Error("icc should outrank gcc@4.6.1")
	}
	// gcc@4.9.2 does not match the gcc@4.6.1 entry -> unlisted rank.
	if !(c.CompilerRank(gcc461) < c.CompilerRank(gcc49)) {
		t.Error("gcc@4.6.1 should outrank gcc@4.9.2")
	}
	if c.CompilerRank(gcc49) != c.CompilerRank(xl) {
		t.Error("unlisted compilers rank equally")
	}
}

func TestCompilerOrderUserOverridesSite(t *testing.T) {
	c := New()
	c.Site.SetCompilerOrder("gcc")
	c.User.SetCompilerOrder("intel")
	order := c.CompilerOrder()
	if len(order) != 2 || order[0].Name != "intel" || order[1].Name != "gcc" {
		t.Errorf("merged order = %v", order)
	}
}

func TestProviderOrder(t *testing.T) {
	c := New()
	c.Site.SetProviderOrder("mpi", "mvapich2", "openmpi")
	if c.ProviderRank("mpi", "mvapich2") != 0 {
		t.Error("mvapich2 should rank first")
	}
	if c.ProviderRank("mpi", "openmpi") != 1 {
		t.Error("openmpi should rank second")
	}
	if c.ProviderRank("mpi", "mpich") != 2 {
		t.Error("unlisted provider ranks last")
	}
	c.User.SetProviderOrder("mpi", "mpich")
	if c.ProviderRank("mpi", "mpich") != 0 {
		t.Error("user scope should outrank site scope")
	}
}

func TestPreferredVersions(t *testing.T) {
	c := New()
	if err := c.Site.PreferVersion("python", "2.7:2.8"); err != nil {
		t.Fatal(err)
	}
	l, ok := c.PreferredVersion("python")
	if !ok || l.String() != "2.7:2.8" {
		t.Errorf("preferred = %v, %v", l, ok)
	}
	if _, ok := c.PreferredVersion("ruby"); ok {
		t.Error("unset preference should not resolve")
	}
	if err := c.Site.PreferVersion("python", ""); err == nil {
		t.Error("empty preference should fail")
	}
}

func TestVariantDefaultScopes(t *testing.T) {
	c := New()
	c.Site.SetVariantDefault("hdf5", "mpi", false)
	if v, ok := c.VariantDefault("hdf5", "mpi"); !ok || v {
		t.Error("site variant default not found")
	}
	c.User.SetVariantDefault("hdf5", "mpi", true)
	if v, _ := c.VariantDefault("hdf5", "mpi"); !v {
		t.Error("user variant default should win")
	}
	if _, ok := c.VariantDefault("hdf5", "shared"); ok {
		t.Error("unknown variant should not resolve")
	}
}

func TestExternalFor(t *testing.T) {
	c := New()
	if err := c.Site.AddExternal("cray-mpi@7.0.1", "cray-xe6", "/opt/cray/mpt"); err != nil {
		t.Fatal(err)
	}

	node := syntax.MustParse("cray-mpi")
	if ext, ok := c.ExternalFor(node, "cray-xe6"); !ok || ext.Path != "/opt/cray/mpt" {
		t.Errorf("external = %+v, %v", ext, ok)
	}
	// Wrong arch: no match.
	if _, ok := c.ExternalFor(node, "linux-x86_64"); ok {
		t.Error("arch-restricted external matched wrong arch")
	}
	// Incompatible version constraint: no match.
	pinned := syntax.MustParse("cray-mpi@8.0")
	if _, ok := c.ExternalFor(pinned, "cray-xe6"); ok {
		t.Error("incompatible version matched external")
	}
	// Different package: no match.
	other := syntax.MustParse("openmpi")
	if _, ok := c.ExternalFor(other, "cray-xe6"); ok {
		t.Error("different package matched external")
	}
	if err := c.Site.AddExternal("!!bad", "", "/x"); err == nil {
		t.Error("bad external constraint should fail")
	}
}

func TestLinkRules(t *testing.T) {
	c := New()
	if err := c.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${VERSION}-${MPINAME}"); err != nil {
		t.Fatal(err)
	}
	if err := c.User.AddLinkRule("", "/home/links/${PACKAGE}"); err != nil {
		t.Fatal(err)
	}
	rules := c.LinkRules()
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	// User rules come first.
	if rules[0].Constraint != nil {
		t.Error("user catch-all rule should be first")
	}
	if err := c.Site.AddLinkRule("!!", "/x"); err == nil {
		t.Error("bad rule constraint should fail")
	}
}

// TestScopeLookupsAllocateNothing: the lookups the concretizer makes for
// every node on every pass walk the scopes without allocating, whichever
// scopes are set.
func TestScopeLookupsAllocateNothing(t *testing.T) {
	full := New()
	full.Site.SetDefaultArch("bgq")
	if err := full.User.AddExternal("mvapich2@1.9", "bgq", "/usr/local"); err != nil {
		t.Fatal(err)
	}
	if err := full.Site.PreferVersion("hdf5", "1.8:"); err != nil {
		t.Fatal(err)
	}
	full.Site.SetVariantDefault("hdf5", "mpi", false)
	siteOnly := New()
	siteOnly.User = nil
	node := spec.New("libelf")
	for _, c := range []*Config{full, siteOnly, {}} {
		allocs := testing.AllocsPerRun(100, func() {
			c.DefaultArch()
			c.PreferredVersion("libelf")
			c.VariantDefault("hdf5", "mpi")
			c.ExternalFor(node, "bgq")
			c.ArchDescription("bgq")
		})
		if allocs != 0 {
			t.Errorf("scope lookups allocate %v times per call", allocs)
		}
	}
	if got := siteOnly.DefaultArch(); got != "linux-x86_64" {
		t.Errorf("site-only default arch = %q", got)
	}
	if _, ok := full.PreferredVersion("hdf5"); !ok {
		t.Error("site preference not found under a user scope")
	}
}

// fingerprintOracle is Fingerprint as first written, with fmt: the hash
// must not move, or persisted memo caches would all turn into misses.
func fingerprintOracle(c *Config) string {
	var b strings.Builder
	all, n := c.scopes()
	for i, s := range all[:n] {
		fmt.Fprintf(&b, "scope %d\n", i)
		fmt.Fprintf(&b, "  default_arch %s\n", s.defaultArch)
		for _, comp := range s.compilerOrder {
			fmt.Fprintf(&b, "  compiler_order %s\n", comp)
		}
		for _, virtual := range sortedKeys(s.providerOrder) {
			fmt.Fprintf(&b, "  provider_order %s = %s\n",
				virtual, strings.Join(s.providerOrder[virtual], ","))
		}
		for _, name := range sortedKeys(s.preferredVersions) {
			fmt.Fprintf(&b, "  preferred_version %s @%s\n", name, s.preferredVersions[name])
		}
		for _, name := range sortedKeys(s.variantDefaults) {
			m := s.variantDefaults[name]
			for _, variant := range sortedKeys(m) {
				fmt.Fprintf(&b, "  variant_default %s %s=%v\n", name, variant, m[variant])
			}
		}
		for _, e := range s.externals {
			fmt.Fprintf(&b, "  external %s arch=%s path=%s\n", e.Constraint, e.Arch, e.Path)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func TestFingerprintMatchesOracle(t *testing.T) {
	c := New()
	check := func(stage string) {
		t.Helper()
		if got, want := c.Fingerprint(), fingerprintOracle(c); got != want {
			t.Errorf("%s: Fingerprint = %s, oracle %s", stage, got, want)
		}
	}
	check("empty")
	c.Site.SetDefaultArch("bgq")
	if err := c.User.SetCompilerOrder("icc,gcc@4.6.1"); err != nil {
		t.Fatal(err)
	}
	c.Site.SetProviderOrder("mpi", "mvapich2", "openmpi")
	if err := c.User.PreferVersion("hdf5", "1.8:1.10"); err != nil {
		t.Fatal(err)
	}
	c.Site.SetVariantDefault("hdf5", "mpi", false)
	c.Site.SetVariantDefault("hdf5", "fortran", true)
	if err := c.Site.AddExternal("mvapich2@1.9%gcc@4.9.2", "bgq", "/usr/local/mpi"); err != nil {
		t.Fatal(err)
	}
	check("populated")
	c.User = nil
	check("site only")
}

// TestScopeSettersChangeFingerprint: every setter of a setting the
// concretizer reads changes the fingerprint, on either scope, once the
// fingerprint has been memoized; the new value matches the oracle. Link
// rules shape views, not concretization, and leave it unchanged.
func TestScopeSettersChangeFingerprint(t *testing.T) {
	setters := map[string]func(s *Scope) error{
		"SetDefaultArch":    func(s *Scope) error { s.SetDefaultArch("bgq"); return nil },
		"SetCompilerOrder":  func(s *Scope) error { return s.SetCompilerOrder("icc,gcc@4.6.1") },
		"SetProviderOrder":  func(s *Scope) error { s.SetProviderOrder("mpi", "openmpi"); return nil },
		"PreferVersion":     func(s *Scope) error { return s.PreferVersion("hdf5", "1.8:") },
		"SetVariantDefault": func(s *Scope) error { s.SetVariantDefault("hdf5", "mpi", false); return nil },
		"AddExternal":       func(s *Scope) error { return s.AddExternal("mvapich2@1.9", "bgq", "/usr/local") },
	}
	for name, set := range setters {
		for _, user := range []bool{false, true} {
			c := New()
			scope := c.Site
			if user {
				scope = c.User
			}
			before := c.Fingerprint()
			if err := set(scope); err != nil {
				t.Fatal(err)
			}
			after := c.Fingerprint()
			if after == before || after != fingerprintOracle(c) {
				t.Errorf("%s (user %v): fingerprint %s -> %s, oracle %s", name, user, before, after, fingerprintOracle(c))
			}
		}
	}
	c := New()
	before := c.Fingerprint()
	if err := c.Site.AddLinkRule("", "/opt/${PACKAGE}"); err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); got != before {
		t.Errorf("AddLinkRule changed the fingerprint: %s -> %s", before, got)
	}
	c.Site.SetArchDescription(&ArchDescription{Name: "bgq", ConfigureArgs: []string{"--host=powerpc64-bgq-linux"}})
	if got := c.Fingerprint(); got != before {
		t.Errorf("SetArchDescription changed the fingerprint: %s -> %s", before, got)
	}
	if d, ok := c.ArchDescription("bgq"); !ok || d.ConfigureArgs[0] != "--host=powerpc64-bgq-linux" {
		t.Errorf("ArchDescription(bgq) = %v, %v", d, ok)
	}
	// Clearing the compiler order is a change too.
	if err := c.User.SetCompilerOrder("gcc"); err != nil {
		t.Fatal(err)
	}
	set := c.Fingerprint()
	if err := c.User.SetCompilerOrder(""); err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); got == set || got != before {
		t.Errorf("clearing the compiler order: fingerprint %s, want %s again", got, before)
	}
}
