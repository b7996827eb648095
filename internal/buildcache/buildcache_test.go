package buildcache_test

import (
	"strings"
	"testing"

	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/buildenv"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/fetch"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

// newEnv wires a builder and store at a chosen root — one simulated
// machine. Separate envs share nothing but whatever cache backend the
// test hands both of them.
func newEnv(t testing.TB, root string) (*build.Builder, *store.Store, *concretize.Concretizer) {
	t.Helper()
	path := repo.NewPath(repo.Builtin())
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, root, store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	mirror := fetch.NewMirror()
	repo.PublishAll(mirror, repo.Builtin())
	b := build.NewBuilder(st, path, compiler.LLNLRegistry())
	b.Mirror = mirror
	b.Config = config.New()
	return b, st, concretize.New(path, b.Config, b.Compilers)
}

func concretizeExpr(t testing.TB, c *concretize.Concretizer, expr string) *spec.Spec {
	t.Helper()
	out, err := c.Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatalf("concretize %q: %v", expr, err)
	}
	return out
}

// buildAndPush builds a spec from source on its own machine and pushes
// the whole DAG into a fresh mirror-backed cache.
func buildAndPush(t *testing.T, expr string) (*buildcache.Cache, *spec.Spec, *store.Store) {
	t.Helper()
	b, st, c := newEnv(t, "/spack/opt")
	concrete := concretizeExpr(t, c, expr)
	if _, err := b.Build(concrete); err != nil {
		t.Fatal(err)
	}
	cache := buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
	if _, err := cache.PushDAG(st, concrete); err != nil {
		t.Fatal(err)
	}
	return cache, concrete, st
}

// pullDAG pulls every non-external node, dependencies first.
func pullDAG(t *testing.T, cache *buildcache.Cache, st *store.Store, root *spec.Spec) *buildcache.PullResult {
	t.Helper()
	var last *buildcache.PullResult
	for _, n := range root.TopoOrder() {
		if n.External {
			continue
		}
		pr, err := cache.Pull(st, n, n.Name == root.Name)
		if err != nil {
			t.Fatalf("pull %s: %v", n.Name, err)
		}
		last = pr
	}
	return last
}

func TestPushPullRoundTripRelocates(t *testing.T) {
	cache, concrete, _ := buildAndPush(t, "libdwarf")

	// A second machine with a different store root.
	_, stB, _ := newEnv(t, "/site/store")
	pr := pullDAG(t, cache, stB, concrete)
	if !pr.Ran || pr.Files == 0 || pr.Time == 0 {
		t.Fatalf("root pull = {Ran:%v Files:%d Time:%v}, want a real unpack", pr.Ran, pr.Files, pr.Time)
	}

	rec, ok := stB.Lookup(concrete)
	if !ok {
		t.Fatal("root not installed after pull")
	}
	if !strings.HasPrefix(rec.Prefix, "/site/store/") {
		t.Fatalf("prefix %q not under target root", rec.Prefix)
	}
	if rec.Origin != store.OriginBinary {
		t.Errorf("origin = %q, want %q", rec.Origin, store.OriginBinary)
	}
	if !rec.Explicit {
		t.Error("explicit pull not recorded as explicit")
	}
	if dep, ok := stB.Lookup(concrete.Dep("libelf")); !ok {
		t.Error("dependency not installed")
	} else if dep.Explicit {
		t.Error("dependency pull recorded as explicit")
	}

	// Every relocated binary must reference only the target store: its
	// embedded rpaths moved with the dependency prefixes.
	bin, err := stB.FS.ReadFile(rec.Prefix + "/bin/libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bin), "/spack/opt") {
		t.Errorf("binary still references source store:\n%s", bin)
	}
	rpaths := buildenv.BinaryRPATHs(bin)
	if len(rpaths) == 0 {
		t.Fatal("relocated binary lost its RPATH entries")
	}
	for _, rp := range rpaths {
		if !strings.HasPrefix(rp, "/site/store/") {
			t.Errorf("rpath %q does not point into target store", rp)
		}
	}

	// Provenance is written by the store exactly as for a source build.
	if _, err := stB.ReadProvenance(rec.Prefix); err != nil {
		t.Errorf("no provenance under pulled prefix: %v", err)
	}
}

func TestPullIntoSameRootVerifiesIdentity(t *testing.T) {
	cache, concrete, _ := buildAndPush(t, "libdwarf")
	_, stB, _ := newEnv(t, "/spack/opt") // same root as the source machine
	pullDAG(t, cache, stB, concrete)
	rec, ok := stB.Lookup(concrete)
	if !ok {
		t.Fatal("root not installed")
	}
	bin, err := stB.FS.ReadFile(rec.Prefix + "/bin/libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(bin), rec.Prefix) {
		t.Error("identity relocation lost the prefix paths")
	}
}

func TestPullAgainIsReuseFastPath(t *testing.T) {
	cache, concrete, _ := buildAndPush(t, "libelf")
	_, stB, _ := newEnv(t, "/site/store")
	first, err := cache.Pull(stB, concrete, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.Pull(stB, concrete, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Ran {
		t.Error("second pull unpacked again instead of reusing")
	}
	if again.Record.Prefix != first.Record.Prefix {
		t.Errorf("records disagree: %q vs %q", again.Record.Prefix, first.Record.Prefix)
	}
	if rec, _ := stB.Lookup(concrete); !rec.Explicit {
		t.Error("explicit re-pull did not promote the record")
	}
}

func TestPullMissingArchive(t *testing.T) {
	cache := buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
	_, stB, c := newEnv(t, "/site/store")
	concrete := concretizeExpr(t, c, "libelf")
	if cache.Has(concrete.FullHash()) {
		t.Fatal("empty cache claims to have the hash")
	}
	_, err := cache.Pull(stB, concrete, false)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindMissing {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindMissing)
	}
}

func TestPullWithoutDepsFails(t *testing.T) {
	cache, concrete, _ := buildAndPush(t, "libdwarf")
	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true) // libelf not installed yet
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindDeps {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindDeps)
	}
	if stB.Len() != 0 {
		t.Errorf("failed pull left %d records in the store", stB.Len())
	}
}

func TestPushNotInstalled(t *testing.T) {
	cache := buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
	_, st, c := newEnv(t, "/spack/opt")
	concrete := concretizeExpr(t, c, "libelf")
	_, err := cache.Push(st, concrete)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindMissing {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindMissing)
	}
}

func TestListAndKeys(t *testing.T) {
	cache, concrete, _ := buildAndPush(t, "libdwarf")
	entries, err := cache.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != concrete.Size() {
		t.Fatalf("listed %d archives, want %d", len(entries), concrete.Size())
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Package > entries[i].Package {
			t.Fatalf("entries not sorted: %q after %q", entries[i].Package, entries[i-1].Package)
		}
	}
	keys, err := cache.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sum, ok := keys[e.FullHash]
		if !ok {
			t.Errorf("no key for %s", e.FullHash)
			continue
		}
		if sum != e.Checksum || len(sum) != 64 {
			t.Errorf("key %q disagrees with entry checksum %q", sum, e.Checksum)
		}
		if !cache.Has(e.FullHash) {
			t.Errorf("Has(%s) = false for a listed archive", e.FullHash)
		}
	}
}

func TestFSBackend(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	be, err := buildcache.NewFSBackend(fs, "/mirror/build_cache")
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Put("a.spack.json", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := be.Get("a.spack.json")
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Get = %q, %v, %v", data, ok, err)
	}
	if _, ok, err := be.Get("absent"); ok || err != nil {
		t.Fatalf("Get absent = %v, %v; want miss without error", ok, err)
	}
	// A leftover temp file from a crashed Put never shows up in listings.
	if err := fs.WriteFile("/mirror/build_cache/b.sha256.tmp99", []byte("torn")); err != nil {
		t.Fatal(err)
	}
	names, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a.spack.json" {
		t.Fatalf("List = %v, want only the committed name", names)
	}
}

func TestFSBackendEndToEnd(t *testing.T) {
	// The same push/pull flow over a file:// style backend instead of a
	// mirror: one shared filesystem carrying the archive directory.
	b, st, c := newEnv(t, "/spack/opt")
	concrete := concretizeExpr(t, c, "libelf")
	if _, err := b.Build(concrete); err != nil {
		t.Fatal(err)
	}
	be, err := buildcache.NewFSBackend(st.FS, "/mirror/build_cache")
	if err != nil {
		t.Fatal(err)
	}
	cache := buildcache.New(be)
	if _, err := cache.PushDAG(st, concrete); err != nil {
		t.Fatal(err)
	}
	_, stB, _ := newEnv(t, "/site/store")
	// stB lives on a different simfs; the backend travels with st.FS.
	pullDAG(t, cache, stB, concrete)
	if _, ok := stB.Lookup(concrete); !ok {
		t.Fatal("pull through FSBackend did not install")
	}
}
