package env

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/build"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/txn"
	"repro/internal/views"
)

// DefaultRoot is where named environments live unless overridden.
const DefaultRoot = "/spack/envs"

const (
	manifestName = "spack.yaml"
	lockName     = "spack.lock"
)

// Host bundles the shared machinery environments operate against. Core
// wires one up from its own subsystems (see core.EnvHost); tests assemble
// them directly.
type Host struct {
	FS        *simfs.FS
	Config    *config.Config
	Repos     *repo.Path
	Compilers *compiler.Registry
	// Cache is the shared concretization memo cache; environments reuse it
	// safely because cache keys include the config fingerprint, and each
	// environment concretizes under its own layered config.
	Cache   *concretize.Cache
	Store   *store.Store
	Builder *build.Builder
	// Modules regenerates module files alongside installs; nil disables.
	Modules *modules.Generator
	// IsMPI feeds view templates' ${MPINAME} placeholder.
	IsMPI func(string) bool
	// Reuse makes Plan concretize against what already exists — the
	// environment's lockfile and the store — so re-planning prefers
	// installed hashes over newest versions (`env install -reuse`).
	Reuse bool
}

// Environment is one named manifest + lockfile directory.
type Environment struct {
	Name     string
	Dir      string
	Manifest *Manifest

	fs   *simfs.FS
	view *views.Manager
}

// ManifestPath returns the environment's spack.yaml location.
func (e *Environment) ManifestPath() string { return e.Dir + "/" + manifestName }

// LockPath returns the environment's spack.lock location.
func (e *Environment) LockPath() string { return e.Dir + "/" + lockName }

// Create makes a new environment directory with an initial manifest.
func Create(fs *simfs.FS, root, name string, specs []string) (*Environment, error) {
	if name == "" || strings.ContainsAny(name, "/ \t") {
		return nil, fmt.Errorf("env: invalid environment name %q", name)
	}
	for _, expr := range specs {
		if _, err := syntax.Parse(expr); err != nil {
			return nil, fmt.Errorf("env: spec %q: %w", expr, err)
		}
	}
	e := &Environment{Name: name, Dir: root + "/" + name, fs: fs,
		Manifest: &Manifest{Specs: append([]string(nil), specs...)}}
	if exists, _ := fs.Stat(e.ManifestPath()); exists {
		return nil, fmt.Errorf("env: environment %q already exists", name)
	}
	if err := fs.MkdirAll(e.Dir); err != nil {
		return nil, err
	}
	return e, e.SaveManifest()
}

// Open loads an existing environment's manifest.
func Open(fs *simfs.FS, root, name string) (*Environment, error) {
	e := &Environment{Name: name, Dir: root + "/" + name, fs: fs}
	data, err := fs.ReadFile(e.ManifestPath())
	if err != nil {
		return nil, fmt.Errorf("env: no environment %q under %s", name, root)
	}
	m, err := ParseManifest(string(data))
	if err != nil {
		return nil, err
	}
	e.Manifest = m
	return e, nil
}

// List names the environments under a root, sorted.
func List(fs *simfs.FS, root string) []string {
	names, err := fs.List(root)
	if err != nil {
		return nil
	}
	var out []string
	for _, name := range names {
		if exists, _ := fs.Stat(root + "/" + name + "/" + manifestName); exists {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SaveManifest writes spack.yaml atomically.
func (e *Environment) SaveManifest() error {
	return txn.WriteFileAtomic(e.fs, e.ManifestPath(), []byte(e.Manifest.Render()))
}

// AddSpec appends an abstract spec to the manifest and saves it. The spec
// is validated syntactically but not concretized — that happens at install.
func (e *Environment) AddSpec(expr string) error {
	if _, err := syntax.Parse(expr); err != nil {
		return fmt.Errorf("env: spec %q: %w", expr, err)
	}
	for _, s := range e.Manifest.Specs {
		if s == expr {
			return fmt.Errorf("env: %q is already in the manifest", expr)
		}
	}
	e.Manifest.Specs = append(e.Manifest.Specs, expr)
	return e.SaveManifest()
}

// RemoveSpec drops a manifest entry (exact expression match) and saves.
func (e *Environment) RemoveSpec(expr string) error {
	for i, s := range e.Manifest.Specs {
		if s == expr {
			e.Manifest.Specs = append(e.Manifest.Specs[:i], e.Manifest.Specs[i+1:]...)
			return e.SaveManifest()
		}
	}
	return fmt.Errorf("env: %q is not in the manifest", expr)
}

// ReadLock loads the committed lockfile (empty if never installed).
func (e *Environment) ReadLock() (*Lock, error) {
	return readLock(e.fs, e.LockPath())
}

// envConfig layers the environment's config section over the host's site
// scope: the environment replaces the user scope, so its settings take the
// personal-preference slot in §4.1's precedence order while site policy
// still applies underneath.
func (e *Environment) envConfig(h *Host) (*config.Config, error) {
	m := e.Manifest
	if m.CompilerOrder == "" && len(m.Providers) == 0 {
		return h.Config, nil
	}
	scope := config.NewScope()
	if m.CompilerOrder != "" {
		if err := scope.SetCompilerOrder(m.CompilerOrder); err != nil {
			return nil, err
		}
	}
	virts := make([]string, 0, len(m.Providers))
	for v := range m.Providers {
		virts = append(virts, v)
	}
	sort.Strings(virts)
	for _, v := range virts {
		scope.SetProviderOrder(v, m.Providers[v]...)
	}
	var site *config.Scope
	if h.Config != nil {
		site = h.Config.Site
	}
	return &config.Config{Site: site, User: scope}, nil
}

// Change is one root-level delta entry in a plan.
type Change struct {
	Expr string     // the manifest (or locked) expression
	Hash string     // the root's full hash
	Root *spec.Spec // the concrete DAG
}

// Plan is the diff between the manifest's concretization and the committed
// lockfile: what must be installed, what stays, what leaves.
type Plan struct {
	// Concrete holds one concrete root per manifest spec, in manifest
	// order (duplicates possible when two entries concretize identically).
	Concrete []*spec.Spec
	Add      []Change
	Keep     []Change
	Remove   []Change
}

// NoOp reports whether applying the plan would change nothing — the
// unchanged-lockfile fast path.
func (p *Plan) NoOp() bool { return len(p.Add) == 0 && len(p.Remove) == 0 }

// Plan concretizes the whole manifest as one unit (shared sub-DAGs unify
// across roots, §3.4.2) and diffs the result against the lockfile by full
// hash. Locked roots whose installs have vanished from the store are
// re-planned as adds, so a manually broken environment heals on install.
func (e *Environment) Plan(h *Host) (*Plan, error) {
	cfg, err := e.envConfig(h)
	if err != nil {
		return nil, err
	}
	abstracts := make([]*spec.Spec, 0, len(e.Manifest.Specs))
	for _, expr := range e.Manifest.Specs {
		a, err := syntax.Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("env: manifest spec %q: %w", expr, err)
		}
		abstracts = append(abstracts, a)
	}
	lock, err := e.ReadLock()
	if err != nil {
		return nil, err
	}
	conc := concretize.New(h.Repos, cfg, h.Compilers)
	conc.Cache = h.Cache
	if h.Reuse {
		// Prefer what the environment already locked, then anything else
		// installed in the store.
		conc.Reuse = concretize.MultiReuse(lock, h.Store)
	}
	concrete, err := conc.ConcretizeAll(abstracts)
	if err != nil {
		return nil, err
	}

	p := &Plan{Concrete: concrete}
	desired := make(map[string]Change, len(concrete))
	var order []string
	for i, c := range concrete {
		hash := c.FullHash()
		if _, dup := desired[hash]; dup {
			continue
		}
		desired[hash] = Change{Expr: e.Manifest.Specs[i], Hash: hash, Root: c}
		order = append(order, hash)
	}
	planned := make(map[string]bool)
	for _, lr := range lock.Roots {
		if planned[lr.Hash] {
			continue
		}
		planned[lr.Hash] = true
		if ch, ok := desired[lr.Hash]; ok {
			if h.Store.IsInstalled(ch.Root) {
				p.Keep = append(p.Keep, ch)
			} else {
				p.Add = append(p.Add, ch)
			}
			continue
		}
		root, err := lock.Spec(lr.Hash)
		if err != nil {
			return nil, err
		}
		p.Remove = append(p.Remove, Change{Expr: lr.Expr, Hash: lr.Hash, Root: root})
	}
	for _, hash := range order {
		if !planned[hash] {
			p.Add = append(p.Add, desired[hash])
		}
	}
	return p, nil
}

// Result reports one Apply or Uninstall.
type Result struct {
	Plan    *Plan
	Builds  []*build.Result
	Removed []string // uninstalled root hashes
	// SkippedRemove maps root hashes that left the environment but stayed
	// installed (other specs still depend on them) to the reason.
	SkippedRemove map[string]string
	Links         []views.Link // the view's final link set
	Modules       []string     // module files staged for added nodes
}

// Apply installs the plan's delta as ONE journaled transaction: every
// added DAG's store mutations, the removed roots' record+prefix deletions,
// the module-file edits, and the view's link delta all commit together.
// The new lockfile is staged into the same transaction, so a crash at
// any point recovers store, modules, view and lock to exactly the pre- or
// the post-state.
func (e *Environment) Apply(h *Host) (*Result, error) {
	p, err := e.Plan(h)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: p, SkippedRemove: map[string]string{}}
	if p.NoOp() {
		// The lockfile already matches the manifest: nothing builds,
		// nothing moves. (`env install` twice in a row is free.)
		return res, nil
	}

	t := txn.Begin(h.FS, h.Store.JournalDir())
	defer t.Rollback()

	for _, ch := range p.Add {
		br, err := h.Builder.BuildTxn(ch.Root, t)
		if err != nil {
			return nil, err
		}
		res.Builds = append(res.Builds, br)
	}
	if h.Modules != nil {
		seen := make(map[string]bool)
		for _, ch := range p.Add {
			for _, n := range ch.Root.TopoOrder() {
				hash := n.FullHash()
				if n.External || seen[hash] {
					continue
				}
				seen[hash] = true
				rec, ok := h.Store.Lookup(n)
				if !ok {
					continue
				}
				res.Modules = append(res.Modules, h.Modules.StageGenerate(t, n, rec.Prefix))
			}
		}
	}
	for _, ch := range p.Remove {
		if err := e.stageRootRemoval(h, t, ch, res); err != nil {
			return nil, err
		}
	}
	if e.Manifest.View != nil {
		links, err := e.refreshView(h, t, p.Keep, p.Add)
		if err != nil {
			return nil, err
		}
		res.Links = links
	}

	lock, err := e.lockFor(p).Encode()
	if err != nil {
		return nil, err
	}
	t.StageWriteFile(e.LockPath(), lock)
	if err := t.Commit(h.Store.Applier()); err != nil {
		return nil, err
	}
	return res, nil
}

// stageRootRemoval stages one root's uninstall into the transaction,
// tolerating roots held by dependents (they leave the environment but stay
// installed) and roots already gone from the store.
func (e *Environment) stageRootRemoval(h *Host, t *txn.Txn, ch Change, res *Result) error {
	err := h.Store.UninstallTxn(t, ch.Root, false)
	var ue *store.UninstallError
	switch {
	case err == nil:
		if h.Modules != nil {
			h.Modules.StageRemove(t, ch.Root)
		}
		res.Removed = append(res.Removed, ch.Hash)
	case errors.As(err, &ue) && len(ue.Dependents) > 0:
		res.SkippedRemove[ch.Hash] = "required by " + strings.Join(ue.Dependents, ", ")
	case errors.As(err, &ue) && ue.Err != nil && strings.Contains(ue.Err.Error(), "not installed"):
		// Already removed by another environment or by hand: converge.
		res.Removed = append(res.Removed, ch.Hash)
	default:
		return err
	}
	return nil
}

// lockFor is the lockfile pinning the plan's desired state.
func (e *Environment) lockFor(p *Plan) *Lock {
	l := &Lock{Version: LockVersion, Specs: map[string]json.RawMessage{}}
	seen := make(map[string]bool)
	for i, c := range p.Concrete {
		hash := c.FullHash()
		if seen[hash] {
			continue
		}
		seen[hash] = true
		l.Roots = append(l.Roots, LockRoot{Expr: e.Manifest.Specs[i], Hash: hash})
		data := syntax.EncodeJSON(c)
		l.Specs[hash] = data
	}
	return l
}

// Uninstall removes everything the lockfile pinned, prunes this
// environment's links from the view, and retires the lockfile — again as
// one transaction. The manifest stays, so `env install` can bring
// the environment back.
func (e *Environment) Uninstall(h *Host) (*Result, error) {
	lock, err := e.ReadLock()
	if err != nil {
		return nil, err
	}
	res := &Result{SkippedRemove: map[string]string{}}
	if len(lock.Roots) == 0 {
		return res, nil
	}

	t := txn.Begin(h.FS, h.Store.JournalDir())
	defer t.Rollback()

	seen := make(map[string]bool)
	for _, lr := range lock.Roots {
		if seen[lr.Hash] {
			continue
		}
		seen[lr.Hash] = true
		root, err := lock.Spec(lr.Hash)
		if err != nil {
			return nil, err
		}
		if err := e.stageRootRemoval(h, t, Change{Expr: lr.Expr, Hash: lr.Hash, Root: root}, res); err != nil {
			return nil, err
		}
	}
	if e.Manifest.View != nil {
		links, err := e.refreshView(h, t, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Links = links
	}

	t.StageRemoveFile(e.LockPath())
	if err := t.Commit(h.Store.Applier()); err != nil {
		return nil, err
	}
	return res, nil
}

// viewManager lazily builds this environment's view manager: a single
// catch-all link rule projecting into the view path, ranked by the
// manifest's conflict policy.
func (e *Environment) viewManager(h *Host) (*views.Manager, error) {
	if e.view != nil {
		return e.view, nil
	}
	v := e.Manifest.View
	scope := config.NewScope()
	if err := scope.AddLinkRule("", v.Path+"/"+v.ProjectionTemplate()); err != nil {
		return nil, err
	}
	m := views.NewManager(h.FS, &config.Config{User: scope}, h.IsMPI)
	m.Journal = h.Store.JournalDir()
	switch v.ConflictPolicy() {
	case "site":
		// Site policy pins the shared view to the site's compiler order,
		// ignoring both the host user scope and this manifest's overrides.
		var site *config.Scope
		if h.Config != nil {
			site = h.Config.Site
		}
		m.Rank = (&config.Config{Site: site}).CompilerRank
	default: // "user"
		envCfg, err := e.envConfig(h)
		if err != nil {
			return nil, err
		}
		m.Rank = envCfg.CompilerRank
	}
	e.view = m
	return m, nil
}

// refreshView stages the view's link delta for the desired root set.
func (e *Environment) refreshView(h *Host, t *txn.Txn, kept, added []Change) ([]views.Link, error) {
	m, err := e.viewManager(h)
	if err != nil {
		return nil, err
	}
	in, err := e.viewScope(h, kept, added)
	if err != nil {
		return nil, err
	}
	return m.StageRefresh(t, scopedQuerier{st: h.Store, in: in}, e.Manifest.View.Path)
}

// viewScope collects the full hashes allowed into the view: this
// environment's kept and added DAGs, plus the locked DAGs of any sibling
// environment sharing the same view path — two environments may co-own a
// view, and neither is allowed to prune the other's links away.
func (e *Environment) viewScope(h *Host, kept, added []Change) (map[string]bool, error) {
	in := make(map[string]bool)
	include := func(root *spec.Spec) {
		for _, n := range root.TopoOrder() {
			in[n.FullHash()] = true
		}
	}
	for _, ch := range kept {
		include(ch.Root)
	}
	for _, ch := range added {
		include(ch.Root)
	}
	parent := parentDir(e.Dir)
	for _, name := range List(e.fs, parent) {
		if name == e.Name {
			continue
		}
		o, err := Open(e.fs, parent, name)
		if err != nil || o.Manifest.View == nil || o.Manifest.View.Path != e.Manifest.View.Path {
			continue
		}
		lock, err := o.ReadLock()
		if err != nil {
			continue
		}
		for hash := range lock.Specs {
			root, err := lock.Spec(hash)
			if err != nil {
				return nil, fmt.Errorf("env: sibling %s: %w", name, err)
			}
			include(root)
		}
	}
	return in, nil
}

// scopedQuerier restricts a store snapshot to an allowed hash set, so an
// environment's view only ever projects the specs that belong in it.
type scopedQuerier struct {
	st store.Querier
	in map[string]bool
}

func (q scopedQuerier) Select(filter func(*store.Record) bool) []*store.Record {
	return q.st.Select(func(r *store.Record) bool {
		if !q.in[r.Spec.FullHash()] {
			return false
		}
		return filter == nil || filter(r)
	})
}

func (q scopedQuerier) Len() int { return len(q.Select(nil)) }

func parentDir(p string) string {
	if i := strings.LastIndex(p, "/"); i > 0 {
		return p[:i]
	}
	return "/"
}
