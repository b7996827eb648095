// Package config models Spack's site and user configuration (SC'15 §3.4.4,
// §4.3): preference policies the concretizer consults to make consistent,
// repeatable choices for parameters the user left unspecified — default
// architecture, compiler order (the `compiler_order = icc,gcc@4.6.1`
// example), virtual-provider order, preferred package versions, variant
// overrides — plus external package registrations (vendor MPI installs) and
// view link rules. User scope overrides site scope, which overrides the
// built-in defaults.
package config

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

// External registers a system-provided installation that satisfies a spec
// constraint outside the store (e.g. the host MPI of Table 3's Cray and
// BG/Q machines).
type External struct {
	// Constraint is what the external satisfies, e.g. "cray-mpi@7.0.1".
	Constraint *spec.Spec
	// Arch restricts the registration to one platform ("" = all).
	Arch string
	// Path is the installation prefix on the system.
	Path string
}

// ArchDescription factors per-platform build knowledge out of package
// files (§4.5: "we cannot currently factor common preferences — like
// configure arguments and architecture-specific compiler flags — out of
// packages and into separate architecture descriptions"; this implements
// that future-work feature). The builder consults the description of the
// target platform instead of each package hard-coding platform
// conditionals.
type ArchDescription struct {
	Name string
	// ConfigureArgs are appended to every ./configure invocation on this
	// platform (e.g. --host=powerpc64-bgq-linux).
	ConfigureArgs []string
	// CompilerFlags maps a compiler name to flags the wrappers inject on
	// this platform (e.g. xl -> -qarch=qp).
	CompilerFlags map[string][]string
	// FrontEnd names the login-node architecture of a cross-compiled
	// system, for tools that must run on the front end (§3.2.3).
	FrontEnd string
}

// LinkRule is one view projection rule (§4.3.1): a parameterized link-name
// template applied to packages matching a constraint.
type LinkRule struct {
	// Constraint selects the packages the rule covers (nil = all).
	Constraint *spec.Spec
	// Template is the link path with ${PACKAGE}, ${VERSION}, ${COMPILER},
	// ${MPINAME}, ${ARCH} and ${HASH} placeholders.
	Template string
}

// Scope is one layer of preferences (site or user). Its settings are
// unexported, so only the setters change them, and each setter publishes
// the change to Config.Fingerprint; Config's methods read them.
type Scope struct {
	// defaultArch is the target platform assumed when a spec has none.
	defaultArch string
	// compilerOrder lists compilers from most to least preferred; entries
	// may pin versions ("gcc@4.6.1"). Compilers not listed rank after all
	// listed ones (§4.3.1).
	compilerOrder []spec.Compiler
	// providerOrder maps a virtual name to provider package names from most
	// to least preferred.
	providerOrder map[string][]string
	// preferredVersions maps package name to a version constraint preferred
	// when the user did not pin one ("site can set default versions").
	preferredVersions map[string]version.List
	// variantDefaults overrides package variant defaults per package.
	variantDefaults map[string]map[string]bool
	// externals lists system installations.
	externals []External
	// linkRules configures view projections.
	linkRules []LinkRule
	// archDescriptions maps platform names to their build descriptions.
	archDescriptions map[string]*ArchDescription

	// gen counts the changes made through the setters; a Config's
	// fingerprint memo is valid only for the generations it was taken at.
	gen atomic.Uint64
}

// NewScope returns an empty scope with allocated maps.
func NewScope() *Scope {
	return &Scope{
		providerOrder:     make(map[string][]string),
		preferredVersions: make(map[string]version.List),
		variantDefaults:   make(map[string]map[string]bool),
		archDescriptions:  make(map[string]*ArchDescription),
	}
}

// SetDefaultArch sets the platform assumed when a spec names none.
func (s *Scope) SetDefaultArch(arch string) {
	s.gen.Add(1)
	s.defaultArch = arch
}

// SetCompilerOrder parses a comma-separated compiler_order setting, the
// exact syntax of §4.3.1 ("compiler_order = icc,gcc@4.6.1"); an empty
// setting clears the scope's order.
func (s *Scope) SetCompilerOrder(order string) error {
	s.gen.Add(1)
	s.compilerOrder = nil
	for _, part := range strings.Split(order, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		cs, err := syntax.Parse("%" + part)
		if err != nil {
			return fmt.Errorf("config: bad compiler_order entry %q: %v", part, err)
		}
		s.compilerOrder = append(s.compilerOrder, cs.Compiler)
	}
	return nil
}

// SetProviderOrder sets the preference order for a virtual interface.
func (s *Scope) SetProviderOrder(virtual string, providers ...string) {
	s.gen.Add(1)
	s.providerOrder[virtual] = slices.Clone(providers)
}

// PreferVersion records a preferred version constraint for a package.
func (s *Scope) PreferVersion(pkgName, constraint string) error {
	l, err := version.ParseList(constraint)
	if err != nil {
		return fmt.Errorf("config: bad preferred version %q for %s: %v", constraint, pkgName, err)
	}
	s.gen.Add(1)
	s.preferredVersions[pkgName] = l
	return nil
}

// SetVariantDefault overrides a package's variant default.
func (s *Scope) SetVariantDefault(pkgName, variant string, value bool) {
	s.gen.Add(1)
	m := s.variantDefaults[pkgName]
	if m == nil {
		m = make(map[string]bool)
		s.variantDefaults[pkgName] = m
	}
	m[variant] = value
}

// AddExternal registers a system installation. The constraint must be
// written in spec syntax and should pin a version.
func (s *Scope) AddExternal(constraint, arch, path string) error {
	c, err := syntax.Parse(constraint)
	if err != nil {
		return fmt.Errorf("config: bad external constraint %q: %v", constraint, err)
	}
	s.gen.Add(1)
	s.externals = append(s.externals, External{Constraint: c, Arch: arch, Path: path})
	return nil
}

// AddLinkRule registers a view link rule; an empty constraint matches all
// packages.
func (s *Scope) AddLinkRule(constraint, template string) error {
	r := LinkRule{Template: template}
	if constraint != "" {
		c, err := syntax.Parse(constraint)
		if err != nil {
			return fmt.Errorf("config: bad link rule constraint %q: %v", constraint, err)
		}
		r.Constraint = c
	}
	s.gen.Add(1)
	s.linkRules = append(s.linkRules, r)
	return nil
}

// SetArchDescription registers the build description of platform d.Name.
func (s *Scope) SetArchDescription(d *ArchDescription) {
	s.gen.Add(1)
	s.archDescriptions[d.Name] = d
}

// Config combines the site and user scopes. Lookups consult user first,
// then site, then built-in defaults.
type Config struct {
	Site *Scope
	User *Scope

	// fp memoizes Fingerprint (see fingerprint.go).
	fp atomic.Pointer[fingerprint]
}

// New returns a Config with empty site and user scopes.
func New() *Config {
	return &Config{Site: NewScope(), User: NewScope()}
}

// scopes returns the active scopes in precedence order: the first n
// entries of all. An array rather than a slice, so that the lookups the
// concretizer makes per node on every pass allocate nothing.
func (c *Config) scopes() (all [2]*Scope, n int) {
	for _, s := range [...]*Scope{c.User, c.Site} {
		if s != nil {
			all[n] = s
			n++
		}
	}
	return all, n
}

// DefaultArch resolves the default architecture, falling back to
// "linux-x86_64" when neither scope sets one.
func (c *Config) DefaultArch() string {
	all, n := c.scopes()
	for _, s := range all[:n] {
		if s.defaultArch != "" {
			return s.defaultArch
		}
	}
	return "linux-x86_64"
}

// CompilerOrder returns the merged preference list: user entries first,
// then site entries not shadowed by a user entry for the same name.
func (c *Config) CompilerOrder() []spec.Compiler {
	var out []spec.Compiler
	seen := make(map[string]bool)
	all, n := c.scopes()
	for _, s := range all[:n] {
		for _, comp := range s.compilerOrder {
			if seen[comp.Name] {
				continue
			}
			seen[comp.Name] = true
			out = append(out, comp)
		}
	}
	return out
}

// CompilerRank orders candidate compilers: listed compilers rank by list
// position; unlisted ones rank after every listed one (§4.3.1: "any
// compiler not in the compiler_order setting is less preferred"). A listed
// entry with a version constraint only matches candidates satisfying it.
func (c *Config) CompilerRank(candidate spec.Compiler) int {
	order := c.CompilerOrder()
	for i, pref := range order {
		if candidate.Name != pref.Name {
			continue
		}
		if !pref.Versions.IsAny() && !candidate.Versions.Satisfies(pref.Versions) {
			continue
		}
		return i
	}
	return len(order)
}

// ProviderOrder returns the merged provider preference for a virtual.
func (c *Config) ProviderOrder(virtual string) []string {
	var out []string
	seen := make(map[string]bool)
	all, n := c.scopes()
	for _, s := range all[:n] {
		for _, p := range s.providerOrder[virtual] {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ProviderRank orders provider packages for a virtual: listed providers by
// position, unlisted after all listed, ties broken alphabetically by the
// caller's sort.
func (c *Config) ProviderRank(virtual, provider string) int {
	order := c.ProviderOrder(virtual)
	for i, p := range order {
		if p == provider {
			return i
		}
	}
	return len(order)
}

// PreferredVersion returns the configured version preference for a package.
func (c *Config) PreferredVersion(pkgName string) (version.List, bool) {
	all, n := c.scopes()
	for _, s := range all[:n] {
		if l, ok := s.preferredVersions[pkgName]; ok {
			return l, true
		}
	}
	return version.List{}, false
}

// VariantDefault resolves a variant override for a package.
func (c *Config) VariantDefault(pkgName, variant string) (bool, bool) {
	all, n := c.scopes()
	for _, s := range all[:n] {
		if m, ok := s.variantDefaults[pkgName]; ok {
			if v, ok := m[variant]; ok {
				return v, true
			}
		}
	}
	return false, false
}

// ExternalFor finds an external registration compatible with a node: the
// node's name and constraints must be compatible with the registration and
// the architectures must match.
func (c *Config) ExternalFor(node *spec.Spec, arch string) (External, bool) {
	all, n := c.scopes()
	for _, s := range all[:n] {
		for _, e := range s.externals {
			if e.Constraint.Name != node.Name {
				continue
			}
			if e.Arch != "" && arch != "" && e.Arch != arch {
				continue
			}
			if !node.Compatible(e.Constraint) {
				continue
			}
			return e, true
		}
	}
	return External{}, false
}

// LinkRules returns all link rules, user scope first.
func (c *Config) LinkRules() []LinkRule {
	var out []LinkRule
	all, n := c.scopes()
	for _, s := range all[:n] {
		out = append(out, s.linkRules...)
	}
	return out
}

// ArchDescription resolves a platform description (user scope first).
func (c *Config) ArchDescription(arch string) (*ArchDescription, bool) {
	all, n := c.scopes()
	for _, s := range all[:n] {
		if d, ok := s.archDescriptions[arch]; ok {
			return d, true
		}
	}
	return nil, false
}
