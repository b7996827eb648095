// Package pkg models Spack packages (SC'15 §3.1): templates that can be
// configured and built many different ways according to a spec. A Package
// carries metadata directives — versions with checksums, conditional
// dependencies, versioned virtual provides, variants, conditional patches —
// and one or more install procedures selected by build specialization
// (§3.2.5's @when dispatch).
//
// The Go analogue of the paper's Python DSL is a fluent builder: directives
// are methods, `when=` predicates are spec strings parsed once at package
// definition time.
package pkg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

// VersionInfo is one `version(...)` directive: a known release, its download
// checksum, and an optional URL override.
type VersionInfo struct {
	Version    version.Version
	MD5        string
	URL        string
	Deprecated bool
}

// Dependency is one `depends_on(...)` directive. Constraint is the spec the
// dependency must satisfy; When (nil = always) gates the edge on the
// depending package's own configuration, e.g. depends_on("mpi", when="+mpi").
type Dependency struct {
	Constraint *spec.Spec
	When       *spec.Spec
	// BuildOnly marks tool dependencies (cmake, autoconf) that are needed at
	// build time but not linked into the result.
	BuildOnly bool
}

// Provided is one `provides(...)` directive: this package implements the
// virtual interface Virtual (possibly version-constrained, e.g. mpi@:2.2)
// when the package's configuration satisfies When (§3.3, Fig. 5).
type Provided struct {
	Virtual *spec.Spec
	When    *spec.Spec
}

// Variant declares a named build option and its default (§3.2.3).
type Variant struct {
	Name        string
	Default     bool
	Description string
}

// Patch is one `patch(...)` directive, applied when the spec matches.
type Patch struct {
	Name string
	When *spec.Spec
}

// FeatureRequirement declares that building this package needs a compiler
// capability like "cxx11" or "openmp4" (the feature-aware compiler
// selection §4.5 calls for), optionally gated on a spec predicate.
type FeatureRequirement struct {
	Feature string
	When    *spec.Spec
}

// BuildContext is the API an install procedure uses to act on the (possibly
// simulated) build substrate. It mirrors the shell-command DSL of the paper
// (Fig. 1): configure, make, make install, cmake. The build package provides
// the implementation; keeping the interface here lets package definitions
// stay independent of the simulator.
type BuildContext interface {
	// Configure runs ./configure with arguments (autotools path).
	Configure(args ...string) error
	// CMake runs cmake with arguments.
	CMake(args ...string) error
	// Make runs make with optional targets.
	Make(targets ...string) error
	// ApplyPatch applies a named patch file to the source tree.
	ApplyPatch(name string) error
	// SetEnv sets a build-environment variable for subsequent commands.
	SetEnv(key, value string)
	// Prefix returns the unique install prefix for this build (§3.1).
	Prefix() string
	// DepPrefix returns the install prefix of a named dependency, the
	// analogue of spec["callpath"].prefix in Fig. 1.
	DepPrefix(name string) (string, error)
	// WorkingDir creates and enters a build subdirectory (Fig. 4's
	// working_dir("spack-build")).
	WorkingDir(name string) error
	// StdCmakeArgs returns the standard cmake arguments Spack injects.
	StdCmakeArgs() []string
}

// InstallFunc is a package's install procedure: it receives the build
// context, the concrete spec being built, and the destination prefix.
type InstallFunc func(ctx BuildContext, s *spec.Spec, prefix string) error

// installCase pairs an install implementation with its @when predicate.
type installCase struct {
	when *spec.Spec // nil = default implementation
	fn   InstallFunc
}

// Package is the compiled form of a package definition. Directives are
// written only through the builder methods, which keep the facts derived
// from them (KnownVersions) in step; the directive fields are exported for
// reading. Once added to a repository a definition is fixed, and
// concurrent solves read its directive specs in place.
type Package struct {
	Name        string
	Description string
	Homepage    string
	URLTemplate string

	VersionInfos []VersionInfo
	Dependencies []Dependency
	Provides     []Provided
	Variants     []Variant
	Patches      []Patch
	Features     []FeatureRequirement

	// Extendee names the package this one extends (§4.2's
	// extends('python')); empty for ordinary packages.
	Extendee string

	// BuildUnits sizes the simulated build: the number of compile steps the
	// build simulator issues (calibrated per package for Fig. 10).
	BuildUnits int
	// BuildSystem is "autotools" or "cmake"; used by the default install.
	BuildSystem string
	// Artifacts is the number of files the install step writes into the
	// prefix (0 means "same as BuildUnits"); Python-style packages that
	// install hundreds of small files set it explicitly, which drives
	// their filesystem-latency sensitivity (Fig. 11).
	Artifacts int

	installs   []installCase
	defaultIns InstallFunc

	// known is KnownVersions' answer, kept sorted as versions are
	// declared: the concretizer asks for it per node on every pass.
	known []version.Version
}

// New begins a package definition.
func New(name string) *Package {
	if name == "" {
		panic("pkg: empty package name")
	}
	return &Package{Name: name, BuildSystem: "autotools", BuildUnits: 10}
}

// Describe sets the docstring.
func (p *Package) Describe(text string) *Package { p.Description = text; return p }

// WithHomepage sets the homepage URL.
func (p *Package) WithHomepage(url string) *Package { p.Homepage = url; return p }

// WithURL sets the download URL template used for version extrapolation
// (§3.2.3: "Spack can extrapolate URLs from versions").
func (p *Package) WithURL(url string) *Package { p.URLTemplate = url; return p }

// WithVersion registers a known ("safe") version with its MD5 checksum.
func (p *Package) WithVersion(v, md5 string, opts ...VersionOption) *Package {
	vi := VersionInfo{Version: version.MustParse(v), MD5: md5}
	for _, o := range opts {
		o(&vi)
	}
	p.VersionInfos = append(p.VersionInfos, vi)
	if !vi.Deprecated {
		// Insert after every version not older, so equal versions keep
		// declaration order.
		i := sort.Search(len(p.known), func(i int) bool { return p.known[i].Compare(vi.Version) < 0 })
		p.known = slices.Insert(p.known, i, vi.Version)
	}
	return p
}

// VersionOption customizes a version directive.
type VersionOption func(*VersionInfo)

// VersionURL overrides the download URL for one version.
func VersionURL(url string) VersionOption { return func(v *VersionInfo) { v.URL = url } }

// Deprecated marks a version the concretizer must not choose on its own;
// only an explicit user pin selects it.
func Deprecated() VersionOption { return func(v *VersionInfo) { v.Deprecated = true } }

// DependsOn adds a dependency constraint, itself written in spec syntax
// ("callpath", "boost@1.54.0", "mpi@2:"). Options add when= predicates.
func (p *Package) DependsOn(constraint string, opts ...DepOption) *Package {
	c, err := syntax.Parse(constraint)
	if err != nil {
		panic(fmt.Sprintf("pkg %s: bad depends_on %q: %v", p.Name, constraint, err))
	}
	d := Dependency{Constraint: c}
	for _, o := range opts {
		o(&d)
	}
	p.Dependencies = append(p.Dependencies, d)
	return p
}

// DepOption customizes a dependency directive.
type DepOption func(*Dependency)

// When gates a dependency on a spec predicate, e.g.
// DependsOn("boost@1.54.0", When("%gcc@:4")).
func When(predicate string) DepOption {
	w := syntax.MustParse(predicate)
	return func(d *Dependency) { d.When = w }
}

// BuildOnly marks the dependency as build-time only.
func BuildOnly() DepOption { return func(d *Dependency) { d.BuildOnly = true } }

// ProvidesVirtual declares that this package implements a (versioned)
// virtual interface, optionally gated: ProvidesVirtual("mpi@:2.2", "@1.9").
// An empty when string means unconditional.
func (p *Package) ProvidesVirtual(virtual, when string) *Package {
	v, err := syntax.Parse(virtual)
	if err != nil {
		panic(fmt.Sprintf("pkg %s: bad provides %q: %v", p.Name, virtual, err))
	}
	pr := Provided{Virtual: v}
	if when != "" {
		pr.When = syntax.MustParse(when)
	}
	p.Provides = append(p.Provides, pr)
	return p
}

// WithVariant declares a boolean variant and its default.
func (p *Package) WithVariant(name string, def bool, description string) *Package {
	p.Variants = append(p.Variants, Variant{Name: name, Default: def, Description: description})
	return p
}

// WithPatch registers a patch, optionally gated on a when predicate
// (e.g. the Blue Gene/Q compiler patches of §3.2.4).
func (p *Package) WithPatch(name, when string) *Package {
	pa := Patch{Name: name}
	if when != "" {
		pa.When = syntax.MustParse(when)
	}
	p.Patches = append(p.Patches, pa)
	return p
}

// RequiresCompilerFeature declares a needed compiler capability; an empty
// when string means unconditional.
func (p *Package) RequiresCompilerFeature(feature, when string) *Package {
	fr := FeatureRequirement{Feature: feature}
	if when != "" {
		fr.When = syntax.MustParse(when)
	}
	p.Features = append(p.Features, fr)
	return p
}

// FeaturesFor returns the compiler capabilities required under
// configuration s.
func (p *Package) FeaturesFor(s *spec.Spec) []string {
	var out []string
	for _, fr := range p.Features {
		if fr.When != nil && !s.Satisfies(fr.When) {
			continue
		}
		out = append(out, fr.Feature)
	}
	return out
}

// Extends marks this package as an extension of another (§4.2).
func (p *Package) Extends(extendee string) *Package {
	p.Extendee = extendee
	// Extensions also depend on their extendee.
	return p.DependsOn(extendee)
}

// WithBuild sets the simulated build parameters.
func (p *Package) WithBuild(system string, units int) *Package {
	p.BuildSystem = system
	p.BuildUnits = units
	return p
}

// WithArtifacts sets the number of files the install step writes.
func (p *Package) WithArtifacts(n int) *Package {
	p.Artifacts = n
	return p
}

// ArtifactCount returns the effective number of installed files.
func (p *Package) ArtifactCount() int {
	if p.Artifacts > 0 {
		return p.Artifacts
	}
	return p.BuildUnits
}

// OnInstall sets the default install implementation.
func (p *Package) OnInstall(fn InstallFunc) *Package {
	p.defaultIns = fn
	return p
}

// OnInstallWhen registers a specialized install implementation selected when
// the concrete spec satisfies the predicate — the paper's @when decorator
// (Fig. 4). Cases are tested in registration order.
func (p *Package) OnInstallWhen(predicate string, fn InstallFunc) *Package {
	p.installs = append(p.installs, installCase{when: syntax.MustParse(predicate), fn: fn})
	return p
}

// KnownVersions returns the declared, non-deprecated versions sorted
// descending (newest first), the order concretization policies prefer.
// Deprecated versions are excluded: they remain installable by explicit
// pin but are never chosen automatically. The slice is the package's own,
// capped so that appending to it copies; callers must not write its
// elements.
func (p *Package) KnownVersions() []version.Version {
	return p.known[:len(p.known):len(p.known)]
}

// URLFor computes the download URL for a version: a per-version override
// when declared, otherwise the package's URL template extrapolated from
// its newest non-deprecated version (§3.2.3).
func (p *Package) URLFor(v version.Version) string {
	if vi, ok := p.VersionInfo(v); ok && vi.URL != "" {
		return vi.URL
	}
	if p.URLTemplate == "" {
		return ""
	}
	base := urlTemplateVersion(p)
	if base.IsZero() {
		return p.URLTemplate
	}
	return ExtrapolateURL(p.URLTemplate, base, v)
}

// ExtrapolateURL rewrites a URL template for a different version: every
// occurrence of the old version string (in dotted, underscored, or dashed
// spelling) is replaced with the new one — §3.2.3's "Spack can extrapolate
// URLs from versions, using the package's url attribute as a model".
func ExtrapolateURL(template string, oldV, newV version.Version) string {
	if oldV.IsZero() || oldV.String() == newV.String() {
		return template
	}
	out := strings.ReplaceAll(template, oldV.String(), newV.String())
	for _, sep := range []string{"_", "-"} {
		out = strings.ReplaceAll(out, oldV.Format(sep), newV.Format(sep))
	}
	return out
}

// urlTemplateVersion guesses which declared version the URL template was
// written for: the one whose string appears in the template.
func urlTemplateVersion(p *Package) version.Version {
	for _, vi := range p.VersionInfos {
		if vi.URL == "" && p.URLTemplate != "" &&
			strings.Contains(p.URLTemplate, vi.Version.String()) {
			return vi.Version
		}
	}
	return version.Version{}
}

// VersionInfo returns the directive for an exact declared version.
func (p *Package) VersionInfo(v version.Version) (VersionInfo, bool) {
	for _, vi := range p.VersionInfos {
		if vi.Version.Equal(v) {
			return vi, true
		}
	}
	return VersionInfo{}, false
}

// ActiveFor reports whether the dependency applies to a (partially
// concretized) configuration s of the depending package: its when=
// predicate is absent or satisfied.
func (d *Dependency) ActiveFor(s *spec.Spec) bool {
	return d.When == nil || s.Satisfies(d.When)
}

// ProvidesFor returns the virtual specs this package provides under
// configuration s (evaluating provides-when conditions, §3.3).
func (p *Package) ProvidesFor(s *spec.Spec) []*spec.Spec {
	var out []*spec.Spec
	for _, pr := range p.Provides {
		if pr.When != nil && !s.Satisfies(pr.When) {
			continue
		}
		out = append(out, pr.Virtual.Clone())
	}
	return out
}

// ProvidesVirtualName reports whether the package has any provides directive
// for the named virtual, regardless of conditions.
func (p *Package) ProvidesVirtualName(virtual string) bool {
	for _, pr := range p.Provides {
		if pr.Virtual.Name == virtual {
			return true
		}
	}
	return false
}

// PatchesFor returns the patches applicable to configuration s.
func (p *Package) PatchesFor(s *spec.Spec) []Patch {
	var out []Patch
	for _, pa := range p.Patches {
		if pa.When != nil && !s.Satisfies(pa.When) {
			continue
		}
		out = append(out, pa)
	}
	return out
}

// VariantDefault returns the declared default for a variant name.
func (p *Package) VariantDefault(name string) (bool, bool) {
	for _, v := range p.Variants {
		if v.Name == name {
			return v.Default, true
		}
	}
	return false, false
}

// InstallFor performs build-specialization dispatch (Fig. 4): the first
// @when case satisfied by the concrete spec wins; otherwise the default
// implementation; otherwise a generic implementation chosen by BuildSystem.
func (p *Package) InstallFor(s *spec.Spec) InstallFunc {
	for _, c := range p.installs {
		if s.Satisfies(c.when) {
			return c.fn
		}
	}
	if p.defaultIns != nil {
		return p.defaultIns
	}
	if p.BuildSystem == "cmake" {
		return genericCMakeInstall
	}
	return genericAutotoolsInstall
}

// genericAutotoolsInstall is the canonical configure/make/make install
// sequence of Fig. 1.
func genericAutotoolsInstall(ctx BuildContext, s *spec.Spec, prefix string) error {
	if err := ctx.Configure("--prefix=" + prefix); err != nil {
		return err
	}
	if err := ctx.Make(); err != nil {
		return err
	}
	return ctx.Make("install")
}

// genericCMakeInstall is the cmake path of Fig. 4.
func genericCMakeInstall(ctx BuildContext, s *spec.Spec, prefix string) error {
	if err := ctx.WorkingDir("spack-build"); err != nil {
		return err
	}
	args := append([]string{".."}, ctx.StdCmakeArgs()...)
	if err := ctx.CMake(args...); err != nil {
		return err
	}
	if err := ctx.Make(); err != nil {
		return err
	}
	return ctx.Make("install")
}

// Validate checks internal consistency of the definition: versions are
// unique, variants unique, extendee not self.
func (p *Package) Validate() error {
	seen := make(map[string]bool)
	for _, vi := range p.VersionInfos {
		k := vi.Version.String()
		if seen[k] {
			return fmt.Errorf("pkg %s: duplicate version %s", p.Name, k)
		}
		seen[k] = true
	}
	vseen := make(map[string]bool)
	for _, v := range p.Variants {
		if vseen[v.Name] {
			return fmt.Errorf("pkg %s: duplicate variant %s", p.Name, v.Name)
		}
		vseen[v.Name] = true
	}
	if p.Extendee == p.Name {
		return fmt.Errorf("pkg %s: cannot extend itself", p.Name)
	}
	for _, d := range p.Dependencies {
		if d.Constraint.Name == p.Name {
			return fmt.Errorf("pkg %s: depends on itself", p.Name)
		}
	}
	return nil
}
