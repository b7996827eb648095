// Package repo implements package repositories (SC'15 §3.1, §4.3.2): named
// collections of package definitions, searched along a configurable path so
// that site-specific repositories can override or extend the builtin one,
// plus the reverse index from virtual interface names to their providers
// that drives virtual-dependency resolution (§3.3, Fig. 6).
package repo

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/pkg"
	"repro/internal/spec"
)

// A Repo is one namespace of package definitions.
type Repo struct {
	Namespace string
	packages  map[string]*pkg.Package
	// gen counts mutations (Add calls), letting a Path keep its provider
	// index and fingerprint until a repository actually changes.
	gen atomic.Uint64
}

// NewRepo creates an empty repository with a namespace like "builtin" or
// "llnl.ares".
func NewRepo(namespace string) *Repo {
	return &Repo{Namespace: namespace, packages: make(map[string]*pkg.Package)}
}

// Add registers a package definition, validating it first. Re-adding a name
// replaces the previous definition (site repos use fresh Repos instead).
// The definition must not be mutated afterwards: paths index its provides
// directives and fingerprint it, and notice only Add.
func (r *Repo) Add(p *pkg.Package) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.packages[p.Name] = p
	r.gen.Add(1)
	return nil
}

// generation returns the mutation counter, used to invalidate a path's
// index snapshot.
func (r *Repo) generation() uint64 { return r.gen.Load() }

// MustAdd is Add for package-set construction code; it panics on error.
func (r *Repo) MustAdd(p *pkg.Package) {
	if err := r.Add(p); err != nil {
		panic(err)
	}
}

// Get returns a package definition by name.
func (r *Repo) Get(name string) (*pkg.Package, bool) {
	p, ok := r.packages[name]
	return p, ok
}

// Names returns all package names, sorted.
func (r *Repo) Names() []string {
	out := make([]string, 0, len(r.packages))
	for n := range r.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of packages in the repository.
func (r *Repo) Len() int { return len(r.packages) }

// A Path is an ordered search path of repositories: the first repository
// containing a name wins, so a site repo listed before builtin overrides
// builtin's recipe (§4.3.2: "custom packages can inherit from and replace
// Spack's default packages").
type Path struct {
	repos []*Repo

	// idx is the provider index and fingerprint of the current repository
	// state (index.go).
	idx atomic.Pointer[index]
}

// NewPath builds a search path; earlier repositories take precedence.
func NewPath(repos ...*Repo) *Path {
	return &Path{repos: repos}
}

// Prepend adds a repository at highest precedence.
func (p *Path) Prepend(r *Repo) { p.repos = append([]*Repo{r}, p.repos...) }

// Repos returns the path in precedence order.
func (p *Path) Repos() []*Repo { return p.repos }

// Get resolves a package name along the path, returning the definition and
// the namespace that supplied it.
func (p *Path) Get(name string) (*pkg.Package, string, bool) {
	for _, r := range p.repos {
		if def, ok := r.Get(name); ok {
			return def, r.Namespace, true
		}
	}
	return nil, "", false
}

// Names returns the union of package names visible along the path.
func (p *Path) Names() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range p.repos {
		for _, n := range r.Names() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// IsVirtual reports whether a name denotes a virtual interface: no package
// file of that name exists, but at least one package provides it (§3.3).
func (p *Path) IsVirtual(name string) bool {
	e := p.index().byVirtual[name]
	return e != nil && e.virtual
}

// ProviderNames returns the names of all packages with a provides directive
// for the virtual, sorted.
func (p *Path) ProviderNames(virtual string) []string {
	if e := p.index().byVirtual[virtual]; e != nil {
		return slices.Clone(e.names)
	}
	return nil
}

// Provider describes one candidate implementation of a virtual spec: the
// provider package and the provider configuration constraint under which it
// supplies a compatible interface version.
type Provider struct {
	Package *pkg.Package
	// When is the provider-side condition (e.g. mvapich2@2.0 provides
	// mpi@:3.0 only when the provider itself is at 2.0); nil if
	// unconditional.
	When *spec.Spec
	// Virtual is the interface spec supplied under that condition.
	Virtual *spec.Spec
}

// ProvidersFor answers one virtual constraint from the reverse index: all
// (package, condition) pairs whose provided interface version list is
// compatible with the requested virtual spec (Fig. 6's "Resolve Virtual
// Deps" stage), sorted by package name, conditioned entries first within a
// package.
func (p *Path) ProvidersFor(virtual *spec.Spec) []Provider {
	e := p.index().byVirtual[virtual.Name]
	if e == nil {
		return nil
	}
	var out []Provider
	for _, pr := range e.provides {
		// The provided interface spec must be compatible with the
		// requested constraint (version lists overlap).
		if pr.Virtual.Compatible(virtual) {
			out = append(out, Provider{Package: pr.Package, When: pr.When, Virtual: pr.Virtual.Clone()})
		}
	}
	return out
}

// Virtuals returns the names of all virtual interfaces visible on the path,
// sorted.
func (p *Path) Virtuals() []string { return slices.Clone(p.index().virtuals) }
