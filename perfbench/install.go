package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/fetch"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/views"
)

// installW installs one Table 3 configuration per operation onto a fresh
// simulated machine, the way core.Spack.Install does, pulling from a
// shared signed binary cache seeded with the Current configurations.
type installW struct {
	s      *site
	be     *buildcache.MirrorBackend // the shared cache's transport
	exprs  []string
	want   []*spec.Spec      // concrete result per input
	origin map[string]string // full hash -> expected store origin
	items  []item
	// fetchBytes adds up the bytes traced operations fetched from the
	// cache.
	fetchBytes atomic.Int64
	// Exact counts over every operation so far; one caller updates them.
	// The virtual clock is summed as an integer so the order of
	// operations cannot change its rounding.
	virtual                                time.Duration
	binary, source, reused, fallbacks      int
	sourceFetches, simfsFiles, moduleFiles int
}

func newInstall(seed int64) (workload, error) {
	s, err := newSite(seed, concretize.NewCache(0), ares.Repo(), repo.Builtin())
	if err != nil {
		return nil, err
	}
	// The farm's write path: push the source-built Current configurations,
	// signed, into the shared cache.
	mirror := fetch.NewMirror()
	w := &installW{s: s, be: buildcache.NewMirrorBackend(mirror), origin: map[string]string{}}
	if err := s.push(buildcache.New(w.be)); err != nil {
		return nil, err
	}
	pushed := map[string]bool{}
	for _, c := range s.current {
		for _, n := range c.Nodes() {
			pushed[n.FullHash()] = true
		}
	}
	// Warm the memo cache with every configuration and record the
	// expected result and node origins.
	for i, cell := range ares.MatrixEntries() {
		expr := ares.SpecFor(cell.Cell, cell.Config)
		abstract, err := parse(nil, expr)
		if err != nil {
			return nil, err
		}
		concrete, err := s.conc.Concretize(abstract)
		if err != nil {
			return nil, fmt.Errorf("concretize %s: %w", expr, err)
		}
		for _, n := range concrete.Nodes() {
			if n.External {
				continue
			}
			w.origin[n.FullHash()] = store.OriginSource
			if pushed[n.FullHash()] {
				w.origin[n.FullHash()] = store.OriginBinary
			}
		}
		w.exprs = append(w.exprs, expr)
		w.want = append(w.want, concrete)
		w.items = append(w.items, item{kind: configKind(cell.Config), input: i})
	}
	return w, nil
}

var installKinds = []ares.CodeConfig{ares.Current, ares.Previous, ares.Lite, ares.Development}

func configKind(c ares.CodeConfig) int {
	for i, k := range installKinds {
		if k == c {
			return i
		}
	}
	return 0
}

func (w *installW) kinds() []string { return []string{"current", "previous", "lite", "development"} }
func (w *installW) clients() int    { return 1 }
func (w *installW) corpus() []item  { return w.items }
func (w *installW) close()          {}

// machine is one fresh simulated install target.
type machine struct {
	fs      *simfs.FS
	store   *store.Store
	builder *build.Builder
	modules *modules.Generator
	views   *views.Manager
}

// newMachine brings up a machine with its own filesystem, store and
// keyring, which trusts the site key under the enforce policy. Traced
// operations see the cache through the metering decorators.
func (w *installW) newMachine(ot *opTrace) (*machine, error) {
	sp := ot.begin("store.new")
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	sp = ot.begin("lifecycle.keyring")
	keys, err := openKeyring(fs, w.s.trustDoc)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	be, verifier := buildcache.Backend(w.be), buildcache.Verifier(keys)
	if ot != nil {
		be = decorateMirror(w.be, ot, &w.fetchBytes)
		verifier = &meteredVerifier{inner: keys, ot: ot}
	}
	bc := buildcache.New(be)
	bc.Verifier = verifier
	bc.Policy = keys.Policy()
	b := w.s.newBuilder(st)
	b.Cache = bc
	vw := views.NewManager(fs, w.s.cfg, w.s.isMPI)
	vw.Journal = st.JournalDir()
	return &machine{
		fs: fs, store: st, builder: b, views: vw,
		modules: &modules.Generator{FS: fs, Root: "/spack/share", Kind: modules.KindDotkit},
	}, nil
}

func (w *installW) do(ot *opTrace, it item) (func() error, error) {
	m, err := w.newMachine(ot)
	if err != nil {
		return nil, err
	}
	abstract, err := parse(ot, w.exprs[it.input])
	if err != nil {
		return nil, err
	}
	sp := ot.begin("store.find")
	recs := m.store.Find(abstract)
	ot.end(sp)
	var concrete *spec.Spec
	if len(recs) > 0 {
		concrete = recs[0].Spec.Clone()
	} else {
		sp = ot.begin("concretize.memo")
		concrete, err = w.s.conc.Concretize(abstract)
		ot.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = ot.begin("build")
	res, err := m.builder.Build(concrete)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	sp = ot.begin("modules.generate")
	files := 0
	for _, n := range concrete.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := m.store.Lookup(n)
		if !ok {
			continue
		}
		if _, err := m.modules.Generate(n, rec.Prefix); err != nil {
			ot.end(sp)
			return nil, err
		}
		files++
	}
	ot.end(sp)
	sp = ot.begin("views.refresh")
	_, err = m.views.Refresh(m.store)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	sp = ot.begin("store.save")
	err = m.store.Save()
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	return func() error { return w.check(m, w.want[it.input], concrete, res, files) }, nil
}

// check verifies one install: the concretized DAG is set-up's, every
// non-external node is in the store with the expected origin, no cached
// archive fell back to a source build, and every node has a module file
// and a view link to its prefix. It then adds the operation's exact
// counts.
func (w *installW) check(m *machine, want, got *spec.Spec, res *build.Result, files int) error {
	if got.FullHash() != want.FullHash() {
		return fmt.Errorf("%s: full hash %s, set-up solved %s", want.Name, got.FullHash(), want.FullHash())
	}
	if res.CacheFallbacks != 0 {
		return fmt.Errorf("%s: %d cached archives fell back to source builds", want.Name, res.CacheFallbacks)
	}
	for _, n := range want.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := m.store.Lookup(n)
		if !ok {
			return fmt.Errorf("%s not installed", n.Name)
		}
		if o := store.RecordOrigin(rec); o != w.origin[n.FullHash()] {
			return fmt.Errorf("%s installed from %s, want %s", n.Name, o, w.origin[n.FullHash()])
		}
		if ok, _ := m.fs.Stat(m.modules.FileName(n)); !ok {
			return fmt.Errorf("%s has no module file", n.Name)
		}
		link := views.ExpandTemplate(viewRule, n, w.s.isMPI)
		if target, err := m.fs.Readlink(link); err != nil || target != rec.Prefix {
			return fmt.Errorf("%s view link %s -> %q, want %s", n.Name, link, target, rec.Prefix)
		}
	}
	w.virtual += res.WallTime
	w.fallbacks += res.CacheFallbacks
	for _, rep := range res.Reports {
		switch {
		case rep.External:
		case rep.Reused:
			w.reused++
		case rep.FromCache:
			w.binary++
		default:
			w.source++
		}
		if rep.Fetched {
			w.sourceFetches++
		}
	}
	w.simfsFiles += m.fs.FileCount()
	w.moduleFiles += files
	return nil
}

func (w *installW) counters() map[string]float64 {
	return map[string]float64{
		"virtual":        w.virtual.Seconds(),
		"binary":         float64(w.binary),
		"source":         float64(w.source),
		"reused":         float64(w.reused),
		"fallbacks":      float64(w.fallbacks),
		"source_fetches": float64(w.sourceFetches),
		"simfs_files":    float64(w.simfsFiles),
		"module_files":   float64(w.moduleFiles),
		"memo_hits":      float64(w.s.conc.Stats.CacheHits()),
		"memo_misses":    float64(w.s.conc.Stats.CacheMisses()),
		"fetch_bytes":    float64(w.fetchBytes.Load()),
	}
}

func (w *installW) afterPhase(map[string]float64) error { return nil }

func (w *installW) layers(p *phase) map[string]float64 {
	d := p.delta
	return map[string]float64{
		"store.new_ms":              p.layerMS("store.new"),
		"lifecycle.keyring_ms":      p.layerMS("lifecycle.keyring"),
		"store.find_ms":             p.layerMS("store.find"),
		"concretize.memo_ms":        p.layerMS("concretize.memo"),
		"concretize.memo_hit_ratio": ratio(d["memo_hits"], d["memo_hits"]+d["memo_misses"]),
		"build.ms":                  p.layerMS("build"),
		"build.self_ms":             p.selfMS("build"),
		"build.virtual_s":           d["virtual"] / float64(p.ops),
		"build.nodes_binary":        d["binary"],
		"build.nodes_source":        d["source"],
		"build.nodes_reused":        d["reused"],
		"build.fallbacks":           d["fallbacks"],
		"buildcache.hit_ratio":      ratio(d["binary"], d["binary"]+d["source"]),
		"buildcache.probes":         p.layerCalls("buildcache.probe"),
		"buildcache.probe_ms":       p.layerMS("buildcache.probe"),
		"buildcache.fetches":        p.layerCalls("buildcache.fetch"),
		"buildcache.fetch_ms":       p.layerMS("buildcache.fetch"),
		"buildcache.fetch_kb":       d["fetch_bytes"] / 1024,
		"buildcache.verifies":       p.layerCalls("buildcache.verify"),
		"buildcache.verify_ms":      p.layerMS("buildcache.verify"),
		"fetch.source_fetches":      d["source_fetches"],
		"simfs.files":               d["simfs_files"],
		"modules.generate_ms":       p.layerMS("modules.generate"),
		"modules.files":             d["module_files"],
		"views.refresh_ms":          p.layerMS("views.refresh"),
		"store.save_ms":             p.layerMS("store.save"),
	}
}
