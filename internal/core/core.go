// Package core is the library facade: it assembles the package manager's
// subsystems — repositories, configuration, compiler registry,
// concretizer, store, build simulator, module generator, views and
// extensions — into one handle with the high-level operations a user (or
// the spack-go CLI) performs: install, spec, find, uninstall, providers,
// activate/deactivate, view refresh, module generation.
//
// A Spack instance corresponds to one installation tree on one (simulated)
// machine. The zero configuration builds against the builtin package
// repository with the LLNL compiler registry of the paper's evaluation
// machines, a local temp stage filesystem, and a fully published mirror.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/extensions"
	"repro/internal/fetch"
	"repro/internal/lifecycle"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/splice"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/version"
	"repro/internal/views"
)

// Spack is a fully wired package-manager instance.
type Spack struct {
	Repos       *repo.Path
	Config      *config.Config
	Compilers   *compiler.Registry
	Concretizer *concretize.Concretizer
	FS          *simfs.FS
	Store       *store.Store
	Builder     *build.Builder
	Mirror      *fetch.Mirror
	BuildCache  *buildcache.Cache
	Modules     *modules.Generator
	Views       *views.Manager
	Extensions  *extensions.Manager
	Keyring     *lifecycle.Keyring
}

// KeysPath is where an instance persists its signing-key registry.
const KeysPath = "/spack/etc/spack/keys.json"

// Option customizes New.
type Option func(*options)

type options struct {
	repos       []*repo.Repo
	cfg         *config.Config
	registry    *compiler.Registry
	stageNFS    bool
	noWrappers  bool
	storeLayout store.Layout
	jobs        int
	cacheSize   int
	noCache     bool
	cacheBE     buildcache.Backend
	cachePolicy build.CachePolicy
}

// WithRepos prepends site repositories (highest precedence first) ahead of
// the builtin repository.
func WithRepos(rs ...*repo.Repo) Option {
	return func(o *options) { o.repos = append(o.repos, rs...) }
}

// WithConfig supplies a prepared configuration.
func WithConfig(c *config.Config) Option { return func(o *options) { o.cfg = c } }

// WithCompilers supplies a compiler registry.
func WithCompilers(r *compiler.Registry) Option { return func(o *options) { o.registry = r } }

// WithNFSStage stages builds on the NFS latency profile (Fig. 10's "home
// directory" condition).
func WithNFSStage() Option { return func(o *options) { o.stageNFS = true } }

// WithoutWrappers disables the compiler wrappers (Fig. 10's baseline).
func WithoutWrappers() Option { return func(o *options) { o.noWrappers = true } }

// WithLayout selects a store directory layout (Table 1 conventions).
func WithLayout(l store.Layout) Option { return func(o *options) { o.storeLayout = l } }

// WithJobs sets build parallelism.
func WithJobs(n int) Option { return func(o *options) { o.jobs = n } }

// WithConcretizeCacheSize bounds the concretizer memo cache (entries).
func WithConcretizeCacheSize(n int) Option { return func(o *options) { o.cacheSize = n } }

// WithoutConcretizeCache disables concretizer memoization, forcing every
// Concretize call through a full solve (benchmark baselines).
func WithoutConcretizeCache() Option { return func(o *options) { o.noCache = true } }

// WithBuildCacheBackend supplies the byte transport the binary build
// cache uses — share one backend across instances to model several
// machines pulling from one mirror. The default is the instance's own
// mirror (blobs under build_cache/).
func WithBuildCacheBackend(be buildcache.Backend) Option {
	return func(o *options) { o.cacheBE = be }
}

// WithCachePolicy sets the builder's binary-cache policy: build.CacheAuto
// (default), build.CacheNever (`-no-cache`), or build.CacheOnly
// (`-cache-only`).
func WithCachePolicy(p build.CachePolicy) Option {
	return func(o *options) { o.cachePolicy = p }
}

// New assembles a Spack instance.
func New(opts ...Option) (*Spack, error) {
	o := &options{
		cfg:         config.New(),
		registry:    compiler.LLNLRegistry(),
		storeLayout: store.SpackLayout{},
		jobs:        4,
	}
	for _, fn := range opts {
		fn(o)
	}

	builtin := repo.Builtin()
	path := repo.NewPath(append(o.repos, builtin)...)

	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", o.storeLayout)
	if err != nil {
		return nil, err
	}

	mirror := fetch.NewMirror()
	repo.PublishAll(mirror, append(o.repos, builtin)...)

	conc := concretize.New(path, o.cfg, o.registry)
	if !o.noCache {
		// Memoize concretizations by default: repeated installs of an
		// identical abstract spec under unchanged repos/config are O(1)
		// cache hits instead of fresh quadratic solves.
		conc.Cache = concretize.NewCache(o.cacheSize)
	}

	be := o.cacheBE
	if be == nil {
		be = buildcache.NewMirrorBackend(mirror)
	}
	bc := buildcache.New(be)

	// The key registry is always wired: an empty keyring signs nothing
	// (Sign returns nil, nil) and its persisted policy is off by default,
	// so the pre-signing behaviour holds until keys are generated and the
	// policy is raised.
	keys, err := lifecycle.OpenKeyring(fs, KeysPath)
	if err != nil {
		return nil, err
	}
	bc.Signer = keys
	bc.Verifier = keys
	bc.Policy = keys.Policy()

	b := build.NewBuilder(st, path, o.registry)
	b.Mirror = mirror
	b.Cache = bc
	b.CachePolicy = o.cachePolicy
	b.Config = o.cfg
	b.Jobs = o.jobs
	if o.stageNFS {
		b.StageLatency = simfs.NFS
	}
	if o.noWrappers {
		b.UseWrappers = false
	}

	s := &Spack{
		Repos:       path,
		Config:      o.cfg,
		Compilers:   o.registry,
		Concretizer: conc,
		FS:          fs,
		Store:       st,
		Builder:     b,
		Mirror:      mirror,
		BuildCache:  bc,
		Modules:     &modules.Generator{FS: fs, Root: "/spack/share", Kind: modules.KindDotkit},
		Keyring:     keys,
	}
	s.Views = views.NewManager(fs, o.cfg, s.IsMPI)
	// Views journal into the store's transaction directory so a crashed
	// refresh is recovered together with everything else on Open.
	s.Views.Journal = st.JournalDir()
	s.Extensions = extensions.NewManager(fs)
	s.Extensions.Merge = extensions.PythonMerge
	return s, nil
}

// MustNew is New for examples and tests; it panics on error.
func MustNew(opts ...Option) *Spack {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// EnvRoot is where this instance keeps named environments.
const EnvRoot = env.DefaultRoot

// GC assembles a garbage-collection pass over this instance: the store
// plus its module files, view links, cached archives, and every
// environment lockfile under EnvRoot as additional roots. View
// directories are derived from the configured link rules, so the sweep
// prunes dangling links left by earlier processes.
func (s *Spack) GC() *lifecycle.GC {
	return &lifecycle.GC{
		Store:    s.Store,
		Modules:  s.Modules,
		Views:    s.Views,
		Cache:    s.BuildCache,
		EnvRoots: []string{EnvRoot},
		ViewDirs: s.viewDirs(),
	}
}

// viewDirs derives the view directories from the configured link rules.
func (s *Spack) viewDirs() []string {
	dirs := make(map[string]bool)
	for _, rule := range s.Config.LinkRules() {
		if i := strings.LastIndexByte(rule.Template, '/'); i > 0 {
			dirs[rule.Template[:i]] = true
		}
	}
	out := make([]string, 0, len(dirs))
	for d := range dirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Splicer assembles the splice executor over this instance: cone
// prefixes re-materialize from the binary cache (or the installed
// prefix), and module files, view links, and environment lockfiles
// under EnvRoot are carried in the same transaction.
func (s *Spack) Splicer() *splice.Splicer {
	return &splice.Splicer{
		Store:    s.Store,
		Cache:    s.BuildCache,
		Modules:  s.Modules,
		Views:    s.Views,
		ViewDirs: s.viewDirs(),
		EnvRoots: []string{EnvRoot},
	}
}

// Splice rewires one installed configuration onto an already-installed
// replacement dependency without rebuilding (`spack-go splice`). Both
// expressions must resolve to exactly one installed record; target names
// the dependency to replace (usually the replacement's package name, but
// different when swapping providers, e.g. mpich → openmpi).
func (s *Spack) Splice(rootExpr, target, replExpr string, dryRun bool) (*splice.Result, error) {
	root, err := s.findOne(rootExpr)
	if err != nil {
		return nil, err
	}
	repl, err := s.findOne(replExpr)
	if err != nil {
		return nil, err
	}
	if target == "" {
		target = repl.Spec.Name
	}
	return s.Splicer().Run(root.Spec, target, repl.Spec, dryRun)
}

// EnvHost exposes the instance's subsystems as an environment host, so
// `spack env` operations run against the same store, builder, module
// generator and concretization memo cache as plain installs.
func (s *Spack) EnvHost() *env.Host {
	return &env.Host{
		FS:        s.FS,
		Config:    s.Config,
		Repos:     s.Repos,
		Compilers: s.Compilers,
		Cache:     s.Concretizer.Cache,
		Store:     s.Store,
		Builder:   s.Builder,
		Modules:   s.Modules,
		IsMPI:     s.IsMPI,
	}
}

// IsMPI reports whether a package name provides the mpi virtual interface.
func (s *Spack) IsMPI(name string) bool {
	def, _, ok := s.Repos.Get(name)
	return ok && def.ProvidesVirtualName("mpi")
}

// Spec concretizes a spec expression (the `spack spec` command).
func (s *Spack) Spec(expr string) (*spec.Spec, error) {
	abstract, err := syntax.Parse(expr)
	if err != nil {
		return nil, err
	}
	return s.Concretizer.Concretize(abstract)
}

// SpecAll concretizes a batch of spec expressions across the concretizer's
// worker pool, sharing one memo cache — the entry point nightly-matrix
// automation uses (Table 3's 36 ARES configurations). Results align with
// the input; failures are collected into the returned error (see
// concretize.BatchError) with nil placeholders in the slice.
func (s *Spack) SpecAll(exprs []string) ([]*spec.Spec, error) {
	abstracts := make([]*spec.Spec, len(exprs))
	for i, expr := range exprs {
		a, err := syntax.Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("core: spec %d %q: %w", i, expr, err)
		}
		abstracts[i] = a
	}
	return s.Concretizer.ConcretizeAll(abstracts)
}

// Install concretizes and builds a spec expression (`spack install`),
// generating module files and refreshing views afterwards. If an installed
// configuration already satisfies the request, it is reused instead of
// concretizing a fresh build (§3.2.3: "the user can save time if Spack
// already has a version installed that satisfies the spec").
func (s *Spack) Install(expr string) (*build.Result, error) {
	abstract, err := syntax.Parse(expr)
	if err != nil {
		return nil, err
	}
	var concrete *spec.Spec
	if recs := s.Store.Find(abstract); len(recs) > 0 {
		concrete = recs[0].Spec.Clone()
	} else {
		concrete, err = s.Concretizer.Concretize(abstract)
		if err != nil {
			return nil, err
		}
	}
	res, err := s.Builder.Build(concrete)
	if err != nil {
		return nil, err
	}
	for _, n := range concrete.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := s.Store.Lookup(n)
		if !ok {
			continue
		}
		if _, err := s.Modules.Generate(n, rec.Prefix); err != nil {
			return nil, err
		}
	}
	if _, err := s.Views.Refresh(s.Store); err != nil {
		return nil, err
	}
	return res, nil
}

// Find returns installed records matching a query expression
// (`spack find`). The query may be abstract.
func (s *Spack) Find(expr string) ([]*store.Record, error) {
	q, err := syntax.Parse(expr)
	if err != nil {
		return nil, err
	}
	return s.Store.Find(q), nil
}

// Uninstall removes one installed configuration matching the expression.
// Ambiguous or unmatched expressions are errors.
func (s *Spack) Uninstall(expr string, force bool) error {
	recs, err := s.Find(expr)
	if err != nil {
		return err
	}
	switch len(recs) {
	case 0:
		return fmt.Errorf("core: no installed spec matches %q", expr)
	case 1:
	default:
		return fmt.Errorf("core: %q is ambiguous: %d installed specs match", expr, len(recs))
	}
	target := recs[0].Spec
	if err := s.Store.Uninstall(target, force); err != nil {
		return err
	}
	if !target.External {
		_ = s.Modules.Remove(target) // module file may predate tracking
	}
	_, err = s.Views.Refresh(s.Store)
	return err
}

// Providers lists the provider package names for a virtual interface
// constraint (`spack providers mpi@2:`).
func (s *Spack) Providers(virtualExpr string) ([]string, error) {
	v, err := syntax.Parse(virtualExpr)
	if err != nil {
		return nil, err
	}
	var out []string
	seen := make(map[string]bool)
	for _, p := range s.Repos.ProvidersFor(v) {
		if !seen[p.Package.Name] {
			seen[p.Package.Name] = true
			out = append(out, p.Package.Name)
		}
	}
	return out, nil
}

// findOne resolves an expression to exactly one installed record.
func (s *Spack) findOne(expr string) (*store.Record, error) {
	recs, err := s.Find(expr)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("core: %q matches %d installed specs, need exactly 1", expr, len(recs))
	}
	return recs[0], nil
}

// Activate links an installed extension into its extendee (`spack
// activate py-numpy`). Both expressions must resolve to single installs,
// and the extension package must declare the extends relationship.
func (s *Spack) Activate(extExpr string) error {
	ext, err := s.findOne(extExpr)
	if err != nil {
		return err
	}
	def, _, ok := s.Repos.Get(ext.Spec.Name)
	if !ok || def.Extendee == "" {
		return fmt.Errorf("core: %s is not an extension", ext.Spec.Name)
	}
	extendeeNode := ext.Spec.Dep(def.Extendee)
	if extendeeNode == nil {
		return fmt.Errorf("core: %s has no %s in its DAG", ext.Spec.Name, def.Extendee)
	}
	extendee, ok := s.Store.Lookup(extendeeNode)
	if !ok {
		return fmt.Errorf("core: extendee %s is not installed", def.Extendee)
	}
	return s.Extensions.Activate(ext, extendee)
}

// ChecksumNewVersions implements the `spack checksum` workflow: scrape the
// mirror for releases the package file does not know, download each, and
// register its MD5 as a new safe version directive, so future installs of
// those versions verify (§3.2.3's safe-version maintenance).
func (s *Spack) ChecksumNewVersions(pkgName string) ([]version.Version, error) {
	def, _, ok := s.Repos.Get(pkgName)
	if !ok {
		return nil, fmt.Errorf("core: unknown package %q", pkgName)
	}
	newer := s.Mirror.Scrape(pkgName, def.KnownVersions())
	var added []version.Version
	for _, v := range newer {
		data, err := s.Mirror.Fetch(pkgName, v, "")
		if err != nil {
			return added, err
		}
		def.WithVersion(v.String(), fetch.ChecksumOf(data))
		added = append(added, v)
	}
	return added, nil
}

// Diff concretizes two spec expressions and reports how the resulting
// configurations differ, package by package.
func (s *Spack) Diff(exprA, exprB string) ([]spec.NodeDiff, error) {
	a, err := s.Spec(exprA)
	if err != nil {
		return nil, err
	}
	b, err := s.Spec(exprB)
	if err != nil {
		return nil, err
	}
	return spec.Diff(a, b), nil
}

// Deactivate reverses Activate.
func (s *Spack) Deactivate(extExpr string) error {
	ext, err := s.findOne(extExpr)
	if err != nil {
		return err
	}
	def, _, ok := s.Repos.Get(ext.Spec.Name)
	if !ok || def.Extendee == "" {
		return fmt.Errorf("core: %s is not an extension", ext.Spec.Name)
	}
	extendeeNode := ext.Spec.Dep(def.Extendee)
	extendee, ok := s.Store.Lookup(extendeeNode)
	if !ok {
		return fmt.Errorf("core: extendee %s is not installed", def.Extendee)
	}
	return s.Extensions.Deactivate(ext, extendee)
}
