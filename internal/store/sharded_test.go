package store

import (
	"crypto/sha256"
	"encoding/base32"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/simfs"
	"repro/internal/spec"
)

// fakeHash renders an i-dependent value in the same base32 alphabet
// spec.FullHash uses.
func fakeHash(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec-%d", i)))
	return strings.ToLower(base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(sum[:]))
}

// TestShardOfCoversAlphabet: every legal first character maps to its own
// shard, and malformed input degrades deterministically.
func TestShardOfCoversAlphabet(t *testing.T) {
	seen := make(map[int]bool)
	for _, c := range hashAlphabet {
		i := shardOf(string(c) + "rest")
		if i < 0 || i >= numShards {
			t.Fatalf("shardOf(%c) = %d out of range", c, i)
		}
		if seen[i] {
			t.Errorf("shard %d assigned twice", i)
		}
		seen[i] = true
	}
	if len(seen) != numShards {
		t.Errorf("only %d of %d shards used", len(seen), numShards)
	}
	if shardOf("") != 0 || shardOf("!bogus") != 0 {
		t.Error("malformed hashes must land in shard 0")
	}
}

// TestShardDistribution: SHA-256 hashes spread over the stripes without a
// pathological hot shard.
func TestShardDistribution(t *testing.T) {
	ix := newShardedIndex()
	const n = 2048
	for i := 0; i < n; i++ {
		h := fakeHash(i)
		ix.Insert(h, &Record{Prefix: fmt.Sprintf("/p/%d", i)})
	}
	nonEmpty, maxLoad := distributionStats(ix)
	if nonEmpty != numShards {
		t.Errorf("%d of %d shards populated with %d hashes", nonEmpty, numShards, n)
	}
	// Uniform expectation is n/numShards = 64; allow generous slack.
	if maxLoad > 3*n/numShards {
		t.Errorf("hot shard holds %d records (uniform share %d)", maxLoad, n/numShards)
	}
	if ix.Len() != n {
		t.Errorf("Len = %d", ix.Len())
	}
}

// distributionStats reports how records spread over the stripes.
func distributionStats(ix *shardedIndex) (nonEmpty, maxLoad int) {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		n := len(sh.records)
		sh.mu.RUnlock()
		if n > 0 {
			nonEmpty++
		}
		if n > maxLoad {
			maxLoad = n
		}
	}
	return nonEmpty, maxLoad
}

// shardsOn reports the distinct shard files a set of specs persists to.
func shardsOn(specs ...*spec.Spec) map[string]bool {
	out := make(map[string]bool)
	for _, s := range specs {
		out[string(s.FullHash()[0])] = true
	}
	return out
}

// TestSaveRewritesOnlyDirtyShards: after a full Save, installing one more
// spec must rewrite only that spec's shard file (plus the manifest), not
// the whole database.
func TestSaveRewritesOnlyDirtyShards(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "libelf@0.8.12")
	c := mustConcrete(t, "zlib")
	if shardOf(a.FullHash()) == shardOf(b.FullHash()) &&
		shardOf(b.FullHash()) == shardOf(c.FullHash()) {
		t.Skip("all test specs landed in one shard; distribution covered elsewhere")
	}
	for _, s := range []*spec.Spec{a, b} {
		if _, _, err := st.Install(s, false, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	// Count writes during the incremental Save through a fresh meter.
	m := simfs.NewMeter()
	st.FS = st.FS.WithMeter(m)
	if _, _, err := st.Install(c, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	m.Reset() // drop the install's provenance writes; measure Save alone
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	writes := m.Ops()["write"]
	// Exactly one rewritten shard file (c's — whether or not it shares a
	// shard with a or b, no unrelated shard is touched) + the manifest.
	want := 2
	if writes != want {
		t.Errorf("incremental Save wrote %d files, want %d (dirty shard + manifest)", writes, want)
	}

	// A Save with nothing dirty writes nothing at all.
	m.Reset()
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if got := m.Ops()["write"]; got != 0 {
		t.Errorf("clean Save wrote %d files", got)
	}
}

// TestShardedLayoutOnDisk: the sharded database persists one file per
// populated hash prefix plus a manifest naming them.
func TestShardedLayoutOnDisk(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "zlib")
	for _, s := range []*spec.Spec{a, b} {
		if _, _, err := st.Install(s, true, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if ex, _ := st.FS.Stat(st.dbDir() + "/" + manifestFile); !ex {
		t.Fatal("manifest missing")
	}
	for prefix := range shardsOn(a, b) {
		if ex, _ := st.FS.Stat(st.dbDir() + "/shards/" + prefix + ".json"); !ex {
			t.Errorf("shard file %s.json missing", prefix)
		}
	}
}

// TestShardedReindexRoundTrip: Reindex rebuilds shards from provenance
// files, and the rebuilt state survives Save/Open.
func TestShardedReindexRoundTrip(t *testing.T) {
	st := newStore(t)
	specs := []*spec.Spec{
		mustConcrete(t, "libelf@0.8.13"),
		mustConcrete(t, "libelf@0.8.12"),
		mustConcrete(t, "zlib"),
	}
	for _, s := range specs {
		if _, _, err := st.Install(s, true, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh handle with no database reindexes from provenance.
	st2, err := New(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := st2.Reindex()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) || st2.Len() != len(specs) {
		t.Fatalf("reindexed %d records (len %d)", n, st2.Len())
	}
	if err := st2.Save(); err != nil {
		t.Fatal(err)
	}

	st3, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if !st3.IsInstalled(s) {
			t.Errorf("%s lost in reindex round trip", s)
		}
		rec, _ := st3.Lookup(s)
		if rec.Prefix != st.Prefix(s) {
			t.Errorf("prefix drifted: %q vs %q", rec.Prefix, st.Prefix(s))
		}
	}
}

// TestConcurrentInstallUninstallFind hammers different shards from many
// goroutines (meaningful under -race): installs, finds, saves and
// uninstalls must never corrupt the index.
func TestConcurrentInstallUninstallFind(t *testing.T) {
	st := newStore(t)
	pool := []*spec.Spec{
		mustConcrete(t, "libelf@0.8.13"),
		mustConcrete(t, "libelf@0.8.12"),
		mustConcrete(t, "zlib"),
		mustConcrete(t, "libdwarf"),
		mustConcrete(t, "mpich"),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := pool[(w+i)%len(pool)]
				if _, _, err := st.Install(s, w%2 == 0, noopBuilder); err != nil {
					t.Error(err)
					return
				}
				st.IsInstalled(pool[i%len(pool)])
				st.Select(func(r *Record) bool { return r.Explicit })
				if i%5 == 0 {
					if err := st.Save(); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 {
					_ = st.Uninstall(s, true) // racing uninstalls may miss
				}
			}
		}()
	}
	wg.Wait()
	// Whatever survived must round-trip.
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Errorf("round trip: %d vs %d records", st2.Len(), st.Len())
	}
}

// TestSaveDuringInstallRace: Save snapshots entry fields under the shard
// lock, so a concurrent Install flipping Explicit can never tear a record
// (the data race this PR fixes). Run with -race.
func TestSaveDuringInstallRace(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "zlib")
	if _, _, err := st.Install(s, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := st.Save(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Alternate promotion state: flip Explicit through Install's
			// fast path while saves stream the shard.
			if _, _, err := st.Install(s, i%2 == 0, noopBuilder); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
