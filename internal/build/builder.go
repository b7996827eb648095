// Package build is the build methodology layer of SC'15 §3.4.3/§3.5: a
// deterministic build simulator and a parallel bottom-up DAG executor.
// Each concrete spec node is fetched from the mirror (MD5-verified),
// staged on the simulated filesystem under a configurable latency profile
// (temp vs. NFS — the Fig. 10/11 conditions), built through the package's
// install procedure with isolated environments and compiler wrappers
// (internal/buildenv), and installed into its unique hashed store prefix
// with provenance. Independent nodes build concurrently under a bounded
// worker pool; a mid-build failure rolls the partial prefix back and
// stops dependents while finished work stands.
package build

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/buildcache"
	"repro/internal/buildenv"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/fetch"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/txn"
)

// CachePolicy selects how Build consults the binary build cache.
type CachePolicy int

const (
	// CacheAuto (the default) installs from the cache when an archive
	// exists and falls back to a source build on miss, checksum mismatch,
	// or relocation failure — per node, so a stale cache degrades
	// gracefully instead of failing the DAG.
	CacheAuto CachePolicy = iota
	// CacheNever ignores the cache entirely (`spack-go install -no-cache`).
	CacheNever
	// CacheOnly refuses to build from source: any node whose archive is
	// missing or unusable fails the build (`-cache-only`).
	CacheOnly
)

func (p CachePolicy) String() string {
	switch p {
	case CacheNever:
		return "never"
	case CacheOnly:
		return "only"
	default:
		return "auto"
	}
}

// Builder drives installs of concrete DAGs into one store.
type Builder struct {
	Store     *store.Store
	Repos     *repo.Path
	Compilers *compiler.Registry

	// Mirror serves source archives; nil means archives are synthesized
	// locally without a fetch (offline source cache).
	Mirror *fetch.Mirror
	// Cache is the binary build cache; nil disables the install-from-
	// binary fast path entirely.
	Cache *buildcache.Cache
	// CachePolicy governs the cache-first path when Cache is set.
	CachePolicy CachePolicy
	// Config supplies architecture descriptions (configure args, wrapper
	// flags) when set.
	Config *config.Config
	// Jobs bounds how many nodes build concurrently (`spack install -j`).
	Jobs int
	// StageLatency is the filesystem profile the build stage runs on:
	// simfs.TempFS by default, simfs.NFS for the paper's home-directory
	// condition.
	StageLatency simfs.Latency
	// UseWrappers toggles the compiler wrappers (Fig. 10's ablation).
	UseWrappers bool
	// StageRoot is where per-node stage directories are created.
	StageRoot string

	// stageSeq disambiguates stage directories when several Build calls
	// race on one store (they may build the same node concurrently).
	stageSeq uint64
}

// NewBuilder assembles a builder with the paper's defaults: temp-FS
// staging, wrappers enabled, serial unless Jobs is raised.
func NewBuilder(st *store.Store, repos *repo.Path, reg *compiler.Registry) *Builder {
	return &Builder{
		Store:        st,
		Repos:        repos,
		Compilers:    reg,
		Jobs:         1,
		StageLatency: simfs.TempFS,
		UseWrappers:  true,
		StageRoot:    "/tmp/spack-stage",
	}
}

// Build installs a concrete DAG bottom-up and returns per-node reports.
// Independent nodes run concurrently on up to Jobs workers; every node
// starts only after all of its dependencies are installed. The first
// failure stops new launches (in-flight nodes drain) and is returned.
// Each node installs as its own transaction: finished work stands even
// when a later node fails.
func (b *Builder) Build(root *spec.Spec) (*Result, error) {
	return b.BuildTxn(root, nil)
}

// BuildTxn is Build staging every install into a caller-owned transaction
// (nil behaves like Build): environments use it to move a whole add/remove
// delta — many DAGs — together, so a crash or rollback undoes all of them.
// Workers share the transaction; its staging is concurrency-safe.
func (b *Builder) BuildTxn(root *spec.Spec, t *txn.Txn) (*Result, error) {
	if root == nil {
		return nil, &Error{Pkg: "?", Phase: "deps", Err: fmt.Errorf("nil spec")}
	}
	if !root.Concrete() {
		return nil, &Error{Pkg: root.Name, Phase: "deps",
			Err: fmt.Errorf("spec is not concrete; concretize before building")}
	}

	nodes := root.TopoOrder()

	// Pin the DAG's hashes for the duration of the build: dependencies
	// installed mid-DAG are implicit and not yet referenced by any indexed
	// root, so a concurrent garbage-collection sweep — which runs between
	// node installs, while no install transaction is open — must see them
	// as live until the build releases them.
	hashes := make([]string, 0, len(nodes))
	for _, n := range nodes {
		hashes = append(hashes, n.FullHash())
	}
	unpin := b.Store.Pin(hashes...)
	defer unpin()

	plan := newReadiness(nodes)

	jobs := b.Jobs
	if jobs < 1 {
		jobs = 1
	}

	// Create the shared stage root up front on the unmetered filesystem so
	// no node's virtual clock is charged for it — per-node times must not
	// depend on which node happens to stage first.
	if err := b.Store.FS.MkdirAll(b.StageRoot); err != nil {
		return nil, &Error{Pkg: root.Name, Phase: "stage", Err: err}
	}

	type outcome struct {
		name string
		rep  *Report
		err  error
	}
	results := make(chan outcome)
	indeg, ready := plan.start()
	reports := make(map[string]*Report, len(nodes))
	running := 0
	order := 0
	var firstErr error
	for {
		if firstErr == nil {
			for running < jobs && len(ready) > 0 {
				name := ready[0]
				ready = ready[1:]
				n := plan.byName[name]
				running++
				go func() {
					rep, err := b.buildOne(n, n == root, t)
					results <- outcome{name: n.Name, rep: rep, err: err}
				}()
			}
		}
		if running == 0 {
			break
		}
		out := <-results
		running--
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		out.rep.Order = order
		order++
		reports[out.name] = out.rep
		for _, dep := range plan.dependents[out.name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if len(reports) != len(nodes) {
		return nil, &Error{Pkg: root.Name, Phase: "deps",
			Err: fmt.Errorf("executor stalled: %d of %d nodes completed", len(reports), len(nodes))}
	}

	res := &Result{Root: root, Reports: reports, Jobs: jobs}
	durations := make(map[string]time.Duration, len(reports))
	for name, rep := range reports {
		durations[name] = rep.Time
		res.TotalTime += rep.Time
		if rep.FromCache {
			res.CacheHits++
		}
		if rep.CacheMissed {
			res.CacheMisses++
		}
		if rep.CacheFallback != "" {
			res.CacheFallbacks++
		}
	}
	res.WallTime = plan.makespan(durations, jobs)
	return res, nil
}

// readiness is a DAG's dependency bookkeeping, built once per build and
// read by both the executor and the makespan schedule: each node's count
// of direct dependencies, the dependents each node releases when it
// finishes (name-sorted), and the nodes ready at the start (name-sorted).
type readiness struct {
	byName     map[string]*spec.Spec
	indeg      map[string]int
	dependents map[string][]string
	ready      []string
}

func newReadiness(nodes []*spec.Spec) *readiness {
	r := &readiness{
		byName:     make(map[string]*spec.Spec, len(nodes)),
		indeg:      make(map[string]int, len(nodes)),
		dependents: make(map[string][]string, len(nodes)),
	}
	for _, n := range nodes {
		r.byName[n.Name] = n
		deps := n.DirectDeps()
		r.indeg[n.Name] = len(deps)
		for _, d := range deps {
			r.dependents[d.Name] = append(r.dependents[d.Name], n.Name)
		}
		if len(deps) == 0 {
			r.ready = append(r.ready, n.Name)
		}
	}
	for _, ds := range r.dependents {
		sort.Strings(ds)
	}
	sort.Strings(r.ready)
	return r
}

// start returns a consumer's own copies of the dependency counts it
// decrements and of the initial ready queue it consumes.
func (r *readiness) start() (map[string]int, []string) {
	return maps.Clone(r.indeg), slices.Clone(r.ready)
}

// makespan computes the virtual wall time of the DAG on `jobs` workers by
// deterministic list scheduling: whenever a worker is free the
// alphabetically-first ready node starts; a node becomes ready when every
// dependency has finished. With jobs=1 this degenerates to the serial sum;
// with unbounded jobs it is the critical path.
func (r *readiness) makespan(dur map[string]time.Duration, jobs int) time.Duration {
	indeg, ready := r.start()
	type task struct {
		end  time.Duration
		name string
	}
	var running []task
	var now, makespan time.Duration
	for len(ready) > 0 || len(running) > 0 {
		for len(running) < jobs && len(ready) > 0 {
			name := ready[0]
			ready = ready[1:]
			running = append(running, task{end: now + dur[name], name: name})
		}
		// Advance the clock to the earliest finishing task (ties broken
		// by name for determinism).
		best := 0
		for i, tk := range running {
			if tk.end < running[best].end ||
				(tk.end == running[best].end && tk.name < running[best].name) {
				best = i
			}
		}
		done := running[best]
		running = append(running[:best], running[best+1:]...)
		now = done.end
		if now > makespan {
			makespan = now
		}
		for _, dep := range r.dependents[done.name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
		sort.Strings(ready)
	}
	return makespan
}

// buildOne installs a single node, assuming its dependencies are already
// in the store (the executor guarantees it). A non-nil transaction
// receives the node's store mutations instead of each committing alone.
func (b *Builder) buildOne(n *spec.Spec, explicit bool, t *txn.Txn) (*Report, error) {
	// Sub-DAG reuse (§3.4.2): an identical configuration is never rebuilt.
	if rec, ok := b.Store.Lookup(n); ok {
		if explicit {
			// Re-record explicitness under the store's shard lock.
			b.Store.MarkExplicit(n)
		}
		return &Report{Name: n.Name, Prefix: rec.Prefix, Reused: true, External: n.External}, nil
	}

	// Externals are recorded with their site-configured path, never built.
	if n.External {
		rec, _, err := b.Store.InstallTxn(t, n, txn.RecordMeta{Explicit: explicit, Origin: store.OriginExternal}, func(string) error { return nil })
		if err != nil {
			return nil, &Error{Pkg: n.Name, Phase: "install", Err: err}
		}
		return &Report{Name: n.Name, Prefix: rec.Prefix, External: true}, nil
	}

	// Binary-cache fast path (§3.4.2's shareable prefixes as Spack
	// buildcaches use them): a node whose full hash is archived installs
	// by checksum-verified relocation instead of fetch/stage/compile.
	// Failures degrade per node — the source path below still runs.
	cacheFallback := ""
	cacheMissed := false
	if b.Cache != nil && b.CachePolicy != CacheNever {
		if b.Cache.Has(n.FullHash()) {
			pr, err := b.Cache.PullTxn(b.Store, t, n, explicit)
			if err == nil {
				rep := &Report{
					Name: n.Name, Prefix: pr.Record.Prefix,
					FromCache: true, Time: pr.Time,
				}
				if !pr.Ran {
					// A concurrent installer of this hash led through the
					// store's singleflight; we shared its record.
					rep.Reused = true
					rep.Time = 0
				}
				return rep, nil
			}
			if b.CachePolicy == CacheOnly {
				return nil, &Error{Pkg: n.Name, Phase: "cache", Err: err}
			}
			cacheFallback = err.Error()
		} else {
			if b.CachePolicy == CacheOnly {
				return nil, &Error{Pkg: n.Name, Phase: "cache",
					Err: fmt.Errorf("no binary archive for hash %s and cache-only is set", n.FullHash())}
			}
			cacheMissed = true
		}
	}

	def, _, ok := b.Repos.Get(n.Name)
	if !ok {
		return nil, &Error{Pkg: n.Name, Phase: "deps", Err: fmt.Errorf("unknown package")}
	}
	deps, err := b.depInfo(n)
	if err != nil {
		return nil, err
	}

	// Every build charges its own virtual clock. The stage lives on the
	// configured latency profile; writes into the prefix go at the store
	// filesystem's own (temp) latency but on the same meter.
	meter := simfs.NewMeter()
	stageFS := b.Store.FS.WithLatency(b.StageLatency).WithMeter(meter)
	prefixFS := b.Store.FS.WithMeter(meter)
	// The sequence number disambiguates racing Build calls; fixed width
	// keeps the stage path length — and with it the virtual cost of every
	// file written under it — independent of launch order.
	stage := fmt.Sprintf("%s/%s-%s-%06d", b.StageRoot, n.Name, n.DAGHash(),
		atomic.AddUint64(&b.stageSeq, 1)%1000000)

	ctx := &buildContext{
		b: b, node: n, def: def, deps: deps,
		stage: stage, cwd: stage,
		stageFS: stageFS, prefixFS: prefixFS, meter: meter,
		prefix: b.Store.Prefix(n),
	}

	fetched, err := ctx.fetchAndStage()
	if err != nil {
		_ = b.Store.FS.RemoveAll(stage)
		return nil, err
	}
	ctx.setupEnvironment()

	installFn := def.InstallFor(n)
	rec, ran, err := b.Store.InstallTxn(t, n, txn.RecordMeta{Explicit: explicit, Origin: store.OriginSource}, func(prefix string) error {
		ctx.prefix = prefix
		for _, pa := range def.PatchesFor(n) {
			if perr := ctx.ApplyPatch(pa.Name); perr != nil {
				return perr
			}
		}
		if ierr := installFn(ctx, n, prefix); ierr != nil {
			return ierr
		}
		return ctx.writeBuildLog()
	})
	// The stage is torn down whatever happened; teardown is charged to
	// the base filesystem meter, not the build's.
	_ = b.Store.FS.RemoveAll(stage)
	if err != nil {
		return nil, &Error{Pkg: n.Name, Phase: "install", Err: err}
	}

	rep := &Report{
		Name:            n.Name,
		Prefix:          rec.Prefix,
		Time:            meter.Cost(),
		Fetched:         fetched,
		WrapperOverhead: ctx.wrappers.TotalOverhead(),
		Commands:        ctx.commands,
		CacheMissed:     cacheMissed,
		CacheFallback:   cacheFallback,
	}
	if !ran {
		// A concurrent Build on the same store led the install of this
		// configuration: the store's singleflight ran the leader's install
		// procedure once and we shared its record; only our staging work
		// was redundant.
		rep.Reused = true
		rep.Time = 0
	}
	return rep, nil
}

// depInfo resolves the install prefixes of every (transitive) dependency
// and marks which ones are link-type — the view the wrappers and the
// build environment get. It is an executor invariant violation for a
// dependency to be missing from the store.
func (b *Builder) depInfo(n *spec.Spec) ([]buildenv.Dep, error) {
	linkSet := make(map[string]bool)
	for _, d := range n.LinkDeps() {
		linkSet[d.Name] = true
	}
	var out []buildenv.Dep
	for _, dn := range n.TopoOrder() {
		if dn.Name == n.Name {
			continue
		}
		var prefix string
		if dn.External {
			prefix = dn.Path
		} else {
			rec, ok := b.Store.Lookup(dn)
			if !ok {
				return nil, &Error{Pkg: n.Name, Phase: "deps",
					Err: fmt.Errorf("dependency %s is not installed", dn.Name)}
			}
			prefix = rec.Prefix
		}
		out = append(out, buildenv.Dep{Name: dn.Name, Prefix: prefix, Link: linkSet[dn.Name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// toolchainFor resolves the real compiler drivers for a node from the
// registry, falling back to conventional paths when the registry does not
// know the toolchain.
func (b *Builder) toolchainFor(n *spec.Spec) compiler.Toolchain {
	if b.Compilers != nil {
		if tcs := b.Compilers.Find(n.Compiler, n.Arch); len(tcs) > 0 {
			return tcs[0]
		}
	}
	name := n.Compiler.Name
	if name == "" {
		name = "cc"
	}
	return compiler.Toolchain{
		Name: name,
		CC:   "/usr/bin/" + name,
		CXX:  "/usr/bin/" + name + "++",
	}
}
