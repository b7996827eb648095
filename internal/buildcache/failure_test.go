package buildcache_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/fetch"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
)

// pushedMirror builds expr from source and pushes its DAG onto a mirror
// the test can tamper with (blob names are build_cache/<hash>.spack.json
// and build_cache/<hash>.sha256).
func pushedMirror(t testing.TB, expr string) (*fetch.Mirror, *buildcache.Cache, *spec.Spec) {
	t.Helper()
	b, st, c := newEnv(t, "/spack/opt")
	concrete := concretizeExpr(t, c, expr)
	if _, err := b.Build(concrete); err != nil {
		t.Fatal(err)
	}
	mirror := fetch.NewMirror()
	cache := buildcache.New(buildcache.NewMirrorBackend(mirror))
	if _, err := cache.PushDAG(st, concrete); err != nil {
		t.Fatal(err)
	}
	return mirror, cache, concrete
}

func archiveBlob(hash string) string  { return "build_cache/" + hash + ".spack.json" }
func checksumBlob(hash string) string { return "build_cache/" + hash + ".sha256" }

func TestPullCorruptArchiveIsChecksumFailure(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, ok := mirror.Blob(archiveBlob(hash))
	if !ok {
		t.Fatal("archive blob missing")
	}
	payload[len(payload)/2] ^= 0xff // bit-rot in the middle of the archive
	mirror.PutBlob(archiveBlob(hash), payload)

	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindChecksum {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindChecksum)
	}
	if stB.Len() != 0 {
		t.Errorf("corrupt pull left %d records in the store", stB.Len())
	}
}

func TestPullTruncatedManifest(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	truncated := payload[:len(payload)/3]
	mirror.PutBlob(archiveBlob(hash), truncated)
	// Re-record the checksum over the truncated bytes so integrity passes
	// and the parse itself has to catch the damage.
	mirror.PutBlob(checksumBlob(hash), []byte(buildcache.ChecksumOf(truncated)+"\n"))

	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindManifest {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindManifest)
	}
}

func TestPullTamperedRelocationTable(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	ar, err := buildcache.DecodeArchive(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Relocations) == 0 {
		t.Fatal("archive recorded no relocations to tamper with")
	}
	for src := range ar.Relocations[0].Occurrences {
		ar.Relocations[0].Occurrences[src] += 7
	}
	tampered := buildcache.EncodeArchive(ar)
	mirror.PutBlob(archiveBlob(hash), tampered)
	mirror.PutBlob(checksumBlob(hash), []byte(buildcache.ChecksumOf(tampered)+"\n"))

	_, stB, _ := newEnv(t, "/site/store")
	_, err = cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindRelocation {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindRelocation)
	}
	if stB.Len() != 0 {
		t.Errorf("failed relocation left %d records in the store", stB.Len())
	}
}

func TestPullRenameFaultLeavesStoreUnchanged(t *testing.T) {
	_, cache, concrete := pushedMirror(t, "libelf")

	// The target store's filesystem fails every rename. Files are written
	// straight to their final paths, so the first rename is the journal
	// flush (temp + rename) that must land before the prefix's first byte:
	// the pull fails there, before anything is unpacked.
	fs := simfs.New(simfs.TempFS)
	stB, err := store.New(fs.FailAfter("rename", 0), "/site/store", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindIO {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindIO)
	}
	if stB.Len() != 0 {
		t.Fatalf("index has %d records after a failed pull, want 0", stB.Len())
	}
	// The store rolled the partial prefix back — nothing torn on disk.
	prefix := stB.Prefix(concrete)
	if exists, _ := fs.Stat(prefix); exists {
		t.Errorf("partial prefix %s survived the failed pull", prefix)
	}
	// A retry on a healthy handle succeeds from the same archive.
	stB2, err := store.New(fs, "/site/store", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Pull(stB2, concrete, true); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
}

// TestPullWriteFaultSweep fails the k-th and every later write of a pull
// of a multi-file archive, for every k until a pull gets through: the
// journal flushes, each relocated file and the provenance files. Every
// failed pull must leave no record, no prefix and an empty journal, and
// a healthy retry on the same tree must succeed.
func TestPullWriteFaultSweep(t *testing.T) {
	_, cache, concrete := pushedMirror(t, "libelf")
	files := 0
	for k := 0; ; k++ {
		if k > 200 {
			t.Fatal("pull still failing after 200 writes")
		}
		fs := simfs.New(simfs.TempFS)
		st, err := store.New(fs.FailAfter("write", k), "/site/store", store.SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cache.Pull(st, concrete, true)
		if err == nil {
			files = res.Files
			if k <= files {
				t.Fatalf("pull succeeded with the write fault at %d, before its %d files", k, files)
			}
			t.Logf("%d write faults swept over a %d-file archive", k, files)
			break
		}
		if kind := buildcache.ErrorKind(err); kind != buildcache.KindIO {
			t.Fatalf("k=%d: error kind = %q (%v), want %q", k, kind, err, buildcache.KindIO)
		}
		if st.Len() != 0 {
			t.Fatalf("k=%d: index has %d records after a failed pull", k, st.Len())
		}
		if exists, _ := fs.Stat(st.Prefix(concrete)); exists {
			t.Fatalf("k=%d: partial prefix survived the failed pull", k)
		}
		if names, err := fs.List(st.JournalDir()); err == nil && len(names) != 0 {
			t.Fatalf("k=%d: journal left behind: %v", k, names)
		}
		healthy, err := store.New(fs, "/site/store", store.SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cache.Pull(healthy, concrete, true); err != nil {
			t.Fatalf("k=%d: retry after fault: %v", k, err)
		}
		if !healthy.IsInstalled(concrete) {
			t.Fatalf("k=%d: retry did not install", k)
		}
	}
	if files < 2 {
		t.Errorf("archive has %d files; the sweep needs a multi-file archive", files)
	}
}

func TestConcurrentPullsShareOneUnpack(t *testing.T) {
	_, cache, concrete := pushedMirror(t, "libelf")
	_, stB, _ := newEnv(t, "/site/store")

	const workers = 8
	results := make([]*buildcache.PullResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cache.Pull(stB, concrete, false)
		}(i)
	}
	wg.Wait()

	ran := 0
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i].Ran {
			ran++
		}
		if results[i].Record.Prefix != results[0].Record.Prefix {
			t.Errorf("worker %d got prefix %q, want %q", i, results[i].Record.Prefix, results[0].Record.Prefix)
		}
	}
	if ran != 1 {
		t.Errorf("%d workers unpacked, want exactly 1 (singleflight)", ran)
	}
	if stB.Len() != 1 {
		t.Errorf("store has %d records, want 1", stB.Len())
	}
}

func TestPullChecksumBlobMissing(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	mirror.DeleteBlob(checksumBlob(concrete.FullHash()))
	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindChecksum {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindChecksum)
	}
	// Has() keys off the checksum blob, so the builder would not even try.
	if cache.Has(concrete.FullHash()) {
		t.Error("Has = true for an archive without a checksum")
	}
}

func TestErrorStringAndKind(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	payload[0] ^= 0xff
	mirror.PutBlob(archiveBlob(hash), payload)
	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "pull") || !strings.Contains(msg, "checksum") {
		t.Errorf("error %q does not name the operation and kind", msg)
	}
	if buildcache.ErrorKind(nil) != "" {
		t.Error("ErrorKind(nil) should be empty")
	}
}

// trustAll is a keyring that trusts every signature, so under the enforce
// policy a crafted archive "signed by a trusted key" reaches the decoder.
type trustAll struct{}

func (trustAll) VerifySignature(string, []byte) error { return nil }

// TestPullRefusesEscapingPath re-encodes libelf's archive with one entry
// renamed to climb out of the prefix, re-records its checksum and pulls it
// into a fresh store under every trust policy. Each pull must fail as a
// manifest failure carrying a PathError, write nothing outside the store,
// record nothing and leave an empty journal.
func TestPullRefusesEscapingPath(t *testing.T) {
	const evil = "../../../../../../../etc/evil"
	for _, policy := range []buildcache.TrustPolicy{buildcache.TrustOff, buildcache.TrustWarn, buildcache.TrustEnforce} {
		mirror, cache, concrete := pushedMirror(t, "libelf")
		hash := concrete.FullHash()
		payload, _ := mirror.Blob(archiveBlob(hash))
		ar, err := buildcache.DecodeArchive(payload)
		if err != nil {
			t.Fatal(err)
		}
		renamed := false
		for i := range ar.Files {
			if ar.Files[i].Path == ".spack/build.log" {
				ar.Files[i].Path, renamed = evil, true
			}
		}
		if !renamed {
			t.Fatal("libelf's archive has no .spack/build.log")
		}
		// Its relocation entry follows, so only the path is wrong.
		for i := range ar.Relocations {
			if ar.Relocations[i].Path == ".spack/build.log" {
				ar.Relocations[i].Path = evil
			}
		}
		crafted := buildcache.EncodeArchive(ar)
		mirror.PutBlob(archiveBlob(hash), crafted)
		mirror.PutBlob(checksumBlob(hash), []byte(buildcache.ChecksumOf(crafted)+"\n"))
		mirror.PutBlob("build_cache/"+hash+".sig", []byte("{}"))
		cache.Policy, cache.Verifier = policy, trustAll{}

		fs := simfs.New(simfs.TempFS)
		st, err := store.New(fs, "/site/store", store.SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = cache.Pull(st, concrete, true)
		var pe *buildcache.PathError
		if !errors.As(err, &pe) || buildcache.ErrorKind(err) != buildcache.KindManifest {
			t.Fatalf("policy %q: pull error %v, want a %s failure carrying a PathError", policy, err, buildcache.KindManifest)
		}
		if exists, _ := fs.Stat("/etc/evil"); exists {
			t.Errorf("policy %q: the crafted entry was written to /etc/evil", policy)
		}
		fs.Walk("/", func(p string, _ bool) error {
			if p != "/" && !strings.HasPrefix(p, "/site") {
				t.Errorf("policy %q: pull wrote %s outside the store", policy, p)
			}
			return nil
		})
		if st.Len() != 0 {
			t.Errorf("policy %q: index has %d records after a refused pull", policy, st.Len())
		}
		if exists, _ := fs.Stat(st.Prefix(concrete)); exists {
			t.Errorf("policy %q: prefix exists after a refused pull", policy)
		}
		if names, err := fs.List(st.JournalDir()); err == nil && len(names) != 0 {
			t.Errorf("policy %q: journal left behind: %v", policy, names)
		}
	}
}
