package splice_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/buildenv"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/fetch"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/splice"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/txn"
	"repro/internal/views"
)

const (
	storeRoot  = "/spack/opt"
	moduleRoot = "/spack/share"
	cacheDir   = "/spack/mirror/build_cache"
	viewRoot   = "/spack/views"
	envRoot    = "/spack/envs"
)

// machine wires every layer a splice touches over one filesystem.
type machine struct {
	FS      *simfs.FS
	Store   *store.Store
	Builder *build.Builder
	Conc    *concretize.Concretizer
	Modules *modules.Generator
	Views   *views.Manager
	Backend *buildcache.FSBackend
	Cache   *buildcache.Cache
}

func newMachine(t *testing.T, fs *simfs.FS) *machine {
	t.Helper()
	st, err := store.New(fs, storeRoot, store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	path := repo.NewPath(repo.Builtin())
	cfg := config.New()
	if err := cfg.Site.AddLinkRule("", viewRoot+"/${PACKAGE}"); err != nil {
		t.Fatal(err)
	}
	reg := compiler.LLNLRegistry()
	b := build.NewBuilder(st, path, reg)
	mirror := fetch.NewMirror()
	repo.PublishAll(mirror, repo.Builtin())
	b.Mirror = mirror
	b.Config = cfg
	be, err := buildcache.NewFSBackend(fs, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	vm := views.NewManager(fs, cfg, nil)
	vm.Journal = st.JournalDir()
	return &machine{
		FS: fs, Store: st, Builder: b,
		Conc:    concretize.New(path, cfg, reg),
		Modules: &modules.Generator{FS: fs, Root: moduleRoot, Kind: modules.KindDotkit},
		Views:   vm, Backend: be, Cache: buildcache.New(be),
	}
}

func (m *machine) install(t *testing.T, expr string) *spec.Spec {
	t.Helper()
	concrete, err := m.Conc.Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatalf("concretize %q: %v", expr, err)
	}
	if _, err := m.Builder.Build(concrete); err != nil {
		t.Fatalf("build %q: %v", expr, err)
	}
	// Per-node install transactions leave database persistence to the
	// caller; persist so reopening processes — the crash sweep's recovery
	// checks — see the records.
	if err := m.Store.Save(); err != nil {
		t.Fatal(err)
	}
	return concrete
}

func (m *machine) splicer() *splice.Splicer {
	return &splice.Splicer{
		Store: m.Store, Cache: m.Cache, Modules: m.Modules,
		Views: m.Views, ViewDirs: []string{viewRoot}, EnvRoots: []string{envRoot},
	}
}

// lockEnv creates an environment whose lockfile pins root's current hash.
func lockEnv(t *testing.T, m *machine, name string, root *spec.Spec) *env.Environment {
	t.Helper()
	e, err := env.Create(m.FS, envRoot, name, []string{root.Name})
	if err != nil {
		t.Fatal(err)
	}
	raw := syntax.EncodeJSON(root)
	hash := root.FullHash()
	lock := &env.Lock{Version: env.LockVersion,
		Roots: []env.LockRoot{{Expr: root.Name, Hash: hash}},
		Specs: map[string]json.RawMessage{hash: raw}}
	data, err := lock.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.WriteFileAtomic(m.FS, e.LockPath(), data); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSpliceFromArchive(t *testing.T) {
	m := newMachine(t, simfs.New(simfs.TempFS))
	root := m.install(t, "libdwarf ^libelf@0.8.12")
	if _, err := m.Cache.PushDAG(m.Store, root); err != nil {
		t.Fatal(err)
	}
	repl := m.install(t, "libelf@0.8.13")
	e := lockEnv(t, m, "dev", root)
	oldHash := root.FullHash()
	oldRec, _ := m.Store.Lookup(root)

	sp := m.splicer()
	// Dry run first: plan only, nothing installed.
	dry, err := sp.Run(root, "libelf", repl, true)
	if err != nil {
		t.Fatal(err)
	}
	p := dry.Plan
	if len(p.Cone) != 1 || p.Cone[0].Name != "libdwarf" || !p.Cone[0].FromArchive {
		t.Fatalf("plan cone = %+v, want one archived libdwarf change", p.Cone)
	}
	if len(p.Envs) != 1 || p.Envs[0] != e.LockPath() {
		t.Fatalf("plan envs = %v, want the dev lockfile", p.Envs)
	}
	if p.NewRootHash == p.OldRootHash {
		t.Fatal("splice did not change the root hash")
	}
	if _, ok := m.Store.Lookup(p.NewRoot); ok {
		t.Fatal("dry run installed the spliced root")
	}

	res, err := sp.Run(root, "libelf", repl, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Installed != 1 || res.FromArchive != 1 || res.Reused != 0 {
		t.Fatalf("result = {Installed:%d FromArchive:%d Reused:%d}, want one archive splice",
			res.Installed, res.FromArchive, res.Reused)
	}
	if res.Time == 0 {
		t.Error("splice charged no virtual time")
	}

	rec, ok := m.Store.Lookup(res.Plan.NewRoot)
	if !ok {
		t.Fatal("spliced root not installed")
	}
	if rec.Origin != store.OriginSpliced {
		t.Errorf("origin = %q, want %q", rec.Origin, store.OriginSpliced)
	}
	if rec.SplicedFrom != oldHash {
		t.Errorf("spliced-from = %q, want %q", rec.SplicedFrom, oldHash)
	}
	if len(rec.Lineage) != 1 || rec.Lineage[0] != oldHash {
		t.Errorf("lineage = %v, want [%s]", rec.Lineage, oldHash)
	}
	if rec.Explicit != oldRec.Explicit {
		t.Errorf("explicit = %v, want the old root's %v", rec.Explicit, oldRec.Explicit)
	}

	// The rewired binary references only the new DAG's prefixes.
	newElf, _ := m.Store.Lookup(res.Plan.NewRoot.Dep("libelf"))
	oldElfRec, _ := m.Store.Lookup(root.Dep("libelf"))
	bin, err := m.FS.ReadFile(rec.Prefix + "/bin/libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bin), oldRec.Prefix) || strings.Contains(string(bin), oldElfRec.Prefix) {
		t.Errorf("spliced binary still references old prefixes:\n%s", bin)
	}
	found := false
	for _, rp := range buildenv.BinaryRPATHs(bin) {
		if strings.HasPrefix(rp, newElf.Prefix) {
			found = true
		}
	}
	if !found {
		t.Errorf("no rpath points at the replacement %s:\n%s", newElf.Prefix, bin)
	}

	// Module file, env lockfile, and view links moved in the same commit.
	if exists, _ := m.FS.Stat(m.Modules.FileName(res.Plan.NewRoot)); !exists {
		t.Error("no module file for the spliced root")
	}
	lock, err := e.ReadLock()
	if err != nil {
		t.Fatal(err)
	}
	if lock.Roots[0].Hash != res.Plan.NewRootHash {
		t.Errorf("lock root hash = %s, want the spliced %s", lock.Roots[0].Hash, res.Plan.NewRootHash)
	}
	if _, ok := lock.Specs[oldHash]; ok {
		t.Error("lockfile still carries the old root spec")
	}
	if s, err := lock.Spec(res.Plan.NewRootHash); err != nil || s.FullHash() != res.Plan.NewRootHash {
		t.Errorf("lockfile spec for new hash broken: %v", err)
	}
	if target, err := m.FS.Readlink(viewRoot + "/libelf"); err != nil || target != newElf.Prefix {
		t.Errorf("view link = %q, %v; want the newer libelf %q", target, err, newElf.Prefix)
	}

	// The old install stays: a splice adds, GC reclaims later.
	if _, ok := m.Store.Lookup(root); !ok {
		t.Error("splice removed the original root")
	}

	// Idempotent re-splice reuses every cone node.
	res2, err := sp.Run(root, "libelf", repl, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Installed != 0 || res2.Reused != 1 {
		t.Errorf("re-splice = {Installed:%d Reused:%d}, want pure reuse", res2.Installed, res2.Reused)
	}
}

func TestSpliceFromPrefixWithoutCache(t *testing.T) {
	m := newMachine(t, simfs.New(simfs.TempFS))
	root := m.install(t, "libdwarf ^libelf@0.8.12")
	repl := m.install(t, "libelf@0.8.13")

	sp := m.splicer()
	sp.Cache = nil // no archives anywhere: snapshot the live prefix
	res, err := sp.Run(root, "libelf", repl, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Installed != 1 || res.FromPrefix != 1 || res.FromArchive != 0 {
		t.Fatalf("result = {Installed:%d FromPrefix:%d FromArchive:%d}, want one prefix splice",
			res.Installed, res.FromPrefix, res.FromArchive)
	}
	rec, ok := m.Store.Lookup(res.Plan.NewRoot)
	if !ok {
		t.Fatal("spliced root not installed")
	}
	oldElfRec, _ := m.Store.Lookup(root.Dep("libelf"))
	bin, err := m.FS.ReadFile(rec.Prefix + "/bin/libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bin), oldElfRec.Prefix) {
		t.Errorf("snapshot splice left old libelf references:\n%s", bin)
	}
}

func TestSpliceProviderSwap(t *testing.T) {
	m := newMachine(t, simfs.New(simfs.TempFS))
	root := m.install(t, "mpileaks ^mpich")
	repl := m.install(t, "openmpi")
	oldMPI, _ := m.Store.Lookup(root.Dep("mpich"))

	res, err := m.splicer().Run(root, "mpich", repl, false)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p.NewRoot.Dep("mpich") != nil {
		t.Error("mpich still in the spliced DAG")
	}
	om := p.NewRoot.Dep("openmpi")
	if om == nil {
		t.Fatal("openmpi not grafted into the spliced DAG")
	}
	rec, ok := m.Store.Lookup(p.NewRoot)
	if !ok {
		t.Fatal("spliced root not installed")
	}
	bin, err := m.FS.ReadFile(rec.Prefix + "/bin/mpileaks")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bin), oldMPI.Prefix) {
		t.Errorf("spliced binary still references mpich prefix %s:\n%s", oldMPI.Prefix, bin)
	}
	omRec, _ := m.Store.Lookup(om)
	if !strings.Contains(string(bin), omRec.Prefix) {
		t.Errorf("spliced binary does not reference openmpi prefix %s:\n%s", omRec.Prefix, bin)
	}
	// Every cone record carries splice provenance.
	for _, ch := range p.Cone {
		n := p.NewRoot
		if n.Name != ch.Name {
			n = p.NewRoot.Dep(ch.Name)
		}
		r, ok := m.Store.Lookup(n)
		if !ok {
			t.Fatalf("cone node %s not installed", ch.Name)
		}
		if r.Origin != store.OriginSpliced || r.SplicedFrom != ch.OldHash {
			t.Errorf("%s: origin=%q spliced-from=%q, want spliced from %s",
				ch.Name, r.Origin, r.SplicedFrom, ch.OldHash)
		}
	}
}

func TestSpliceLineageChains(t *testing.T) {
	m := newMachine(t, simfs.New(simfs.TempFS))
	root := m.install(t, "libdwarf ^libelf@0.8.12")
	repl1 := m.install(t, "libelf@0.8.13")
	repl2 := m.install(t, "libelf@0.8.10")
	h0 := root.FullHash()

	sp := m.splicer()
	res1, err := sp.Run(root, "libelf", repl1, false)
	if err != nil {
		t.Fatal(err)
	}
	h1 := res1.Plan.NewRootHash
	res2, err := sp.Run(res1.Plan.NewRoot, "libelf", repl2, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := m.Store.Lookup(res2.Plan.NewRoot)
	if !ok {
		t.Fatal("twice-spliced root not installed")
	}
	if rec.SplicedFrom != h1 {
		t.Errorf("spliced-from = %s, want the intermediate %s", rec.SplicedFrom, h1)
	}
	want := []string{h0, h1}
	if fmt.Sprint(rec.Lineage) != fmt.Sprint(want) {
		t.Errorf("lineage = %v, want %v", rec.Lineage, want)
	}
}

func TestSpliceErrors(t *testing.T) {
	m := newMachine(t, simfs.New(simfs.TempFS))
	root := m.install(t, "libdwarf ^libelf@0.8.12")
	sp := m.splicer()

	// Replacement not installed: a splice relocates, it never builds.
	notBuilt, err := m.Conc.Concretize(syntax.MustParse("libelf@0.8.13"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Run(root, "libelf", notBuilt, false); err == nil ||
		!strings.Contains(err.Error(), "not installed") {
		t.Errorf("uninstalled replacement: err = %v, want a not-installed complaint", err)
	}

	// Root not installed.
	ghost, err := m.Conc.Concretize(syntax.MustParse("libdwarf ^libelf@0.8.13"))
	if err != nil {
		t.Fatal(err)
	}
	repl := m.install(t, "libelf@0.8.13")
	if _, err := sp.Run(ghost, "libelf", repl, false); err == nil ||
		!strings.Contains(err.Error(), "not installed") {
		t.Errorf("uninstalled root: err = %v, want a not-installed complaint", err)
	}

	// Target absent from the DAG.
	if _, err := sp.Run(root, "zlib", repl, false); err == nil {
		t.Error("splicing an absent dependency succeeded")
	}
}
