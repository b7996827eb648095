package lifecycle

import (
	"sort"

	"repro/internal/buildcache"
	"repro/internal/env"
	"repro/internal/modules"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/views"
)

// GC is a garbage-collection pass over one store and the layers anchored
// to it. The live set is everything reachable by walking dependency
// edges from the roots — explicitly installed records, every root of
// every environment lockfile under EnvRoots, and the hashes pinned by
// in-flight builds — plus external records, whose prefixes are
// site-owned and never Spack's to reclaim. Everything else is dead:
// its prefix, its module file, and its cached archive are reclaimed in
// one journaled transaction.
type GC struct {
	Store *store.Store
	// Modules, Views, Cache are optional layers swept alongside the
	// store; nil skips each.
	Modules *modules.Generator
	Views   *views.Manager
	Cache   *buildcache.Cache
	// EnvRoots are environment collection directories (env.DefaultRoot
	// and friends) whose lockfiles anchor live roots.
	EnvRoots []string
	// ViewDirs are view directories whose dangling symlinks the sweep
	// prunes (views of a fresh process have an empty in-memory link map,
	// so the physical sweep is what finds stale links).
	ViewDirs []string
}

// DeadRecord is one reclaimable installation in a Plan.
type DeadRecord struct {
	Spec     string
	FullHash string
	Prefix   string
	// Bytes is the prefix tree's payload size — what deleting it
	// reclaims.
	Bytes int64
	// Module is the record's module file path when one exists; Archive
	// reports whether the cache holds an archive for the hash.
	Module  string
	Archive bool
}

// Plan is the dry-run answer: what a sweep would keep and what it would
// reclaim.
type Plan struct {
	// Roots counts the anchors the live walk started from; Live is the
	// set of reachable full hashes (plus pins and externals).
	Roots int
	Live  map[string]bool
	// Dead lists reclaimable records sorted by prefix; DeadBytes totals
	// their prefix sizes.
	Dead      []DeadRecord
	DeadBytes int64
}

// Result reports an executed sweep.
type Result struct {
	Plan *Plan
	// Reclaimed is the prefix bytes freed; Records, ModuleFiles, and
	// Archives count what was removed from each layer.
	Reclaimed   int64
	Records     int
	ModuleFiles int
	Archives    int
}

// Plan computes the live set and the dead remainder without taking any
// lock — a read-only preview that may be stale the moment it returns.
// Run recomputes under quiescence before deleting anything.
func (g *GC) Plan() (*Plan, error) {
	return g.plan()
}

func (g *GC) plan() (*Plan, error) {
	p := &Plan{Live: make(map[string]bool)}
	addClosure := func(s *spec.Spec) {
		for _, n := range s.TopoOrder() {
			p.Live[n.FullHash()] = true
		}
	}

	// Explicit installs and externals anchor themselves; explicit roots
	// carry their whole dependency cone.
	for _, r := range g.Store.All() {
		switch {
		case r.Explicit:
			p.Roots++
			addClosure(r.Spec)
		case r.Spec.External:
			p.Live[r.Spec.FullHash()] = true
		}
	}

	// Environment lockfiles are roots even when no explicit store flag
	// survives — an env's installed DAG stays live as long as its lock
	// references it.
	for _, root := range g.EnvRoots {
		for _, name := range env.List(g.Store.FS, root) {
			e, err := env.Open(g.Store.FS, root, name)
			if err != nil {
				continue
			}
			lock, err := e.ReadLock()
			if err != nil {
				// No lockfile yet (never concretized): nothing to anchor.
				continue
			}
			roots, err := lock.ReuseCandidates()
			if err != nil {
				return nil, err
			}
			for _, s := range roots {
				p.Roots++
				addClosure(s)
			}
		}
	}

	// In-flight builds pin the hashes of DAGs mid-install.
	for h := range g.Store.Pinned() {
		p.Live[h] = true
	}

	for _, r := range g.Store.All() {
		hash := r.Spec.FullHash()
		if p.Live[hash] {
			continue
		}
		d := DeadRecord{
			Spec:     r.Spec.String(),
			FullHash: hash,
			Prefix:   r.Prefix,
			Bytes:    g.Store.FS.TreeSize(r.Prefix),
		}
		if g.Modules != nil {
			if f := g.Modules.FileName(r.Spec); fileExists(g.Store, f) {
				d.Module = f
			}
		}
		if g.Cache != nil && g.Cache.Has(hash) {
			d.Archive = true
		}
		p.Dead = append(p.Dead, d)
		p.DeadBytes += d.Bytes
	}
	sort.Slice(p.Dead, func(i, j int) bool { return p.Dead[i].Prefix < p.Dead[j].Prefix })
	return p, nil
}

func fileExists(st *store.Store, path string) bool {
	exists, isDir := st.FS.Stat(path)
	return exists && !isDir
}

// Run executes a sweep. With dryRun it returns the Plan untouched.
// Otherwise it quiesces the store — every install and uninstall
// transaction has drained and new ones wait — recomputes the plan
// against the frozen state, and stages every deletion (index records,
// prefix trees, module files, view-link refresh, cached archives) into
// one journaled transaction: a crash at any point leaves the site
// exactly pre- or post-sweep after recovery. A txn.CommitError means the
// commit point was reached — the sweep is durable and recovery rolls it
// forward — so callers should treat it as "reclaimed, pending replay".
func (g *GC) Run(dryRun bool) (*Result, error) {
	if dryRun {
		p, err := g.plan()
		if err != nil {
			return nil, err
		}
		return &Result{Plan: p}, nil
	}

	var res *Result
	err := g.Store.Quiesce(func() error {
		// Recompute under quiescence: the preview plan (if any) may have
		// raced installs; this one cannot.
		p, err := g.plan()
		if err != nil {
			return err
		}
		res = &Result{Plan: p}
		if len(p.Dead) == 0 {
			return nil
		}

		t := txn.Begin(g.Store.FS, g.Store.JournalDir())
		defer t.Rollback()
		for _, d := range p.Dead {
			if !g.Store.ForgetTxn(t, d.FullHash) {
				continue
			}
			res.Records++
			res.Reclaimed += d.Bytes
			if d.Module != "" {
				t.StageRemoveFile(d.Module)
				res.ModuleFiles++
			}
			if d.Archive && g.Cache != nil {
				hash := d.FullHash
				if !g.Cache.StageDelete(t, hash) {
					// Backend without journal support (e.g. an in-memory
					// mirror): delete after the commit point so a rollback
					// never orphans a still-indexed record's archive.
					t.OnCommit(func() { _ = g.Cache.Delete(hash) })
				}
				res.Archives++
			}
		}
		if g.Views != nil {
			// Records left the in-memory index above, so the recomputed
			// desired link set excludes the dead; the ViewDirs sweep finds
			// their physical links.
			if _, err := g.Views.StageRefresh(t, g.Store, g.ViewDirs...); err != nil {
				return err
			}
		}
		return t.Commit(g.Store.Applier())
	})
	return res, err
}
