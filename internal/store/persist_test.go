package store

import (
	"strings"
	"testing"

	"repro/internal/simfs"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "zlib")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle on the same tree (a "new process") sees the state.
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("loaded %d records", st2.Len())
	}
	if !st2.IsInstalled(a) || !st2.IsInstalled(b) {
		t.Error("records lost in round trip")
	}
	recA, _ := st2.Lookup(a)
	if !recA.Explicit {
		t.Error("explicit flag lost")
	}
	recB, _ := st2.Lookup(b)
	if recB.Explicit {
		t.Error("implicit flag corrupted")
	}
	if recA.Prefix != st.Prefix(a) {
		t.Errorf("prefix mismatch: %q", recA.Prefix)
	}
}

func TestSaveLoadExternal(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "zlib")
	s.External = true
	s.Path = "/usr"
	if _, _, err := st.Install(s, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	recs := st2.All()
	if len(recs) != 1 || !recs[0].Spec.External || recs[0].Prefix != "/usr" {
		t.Errorf("external record = %+v", recs[0])
	}
}

func TestOpenWithoutDatabase(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := Open(fs, "/fresh", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Error("fresh store should be empty")
	}
}

// TestLoadCorruptDatabase: every way the on-disk database can be damaged
// makes Open fail with an error naming the cause, never a silently empty
// store. The store reads only the manifest and the shard files it names,
// so a lone index.json, even an unparsable one, opens as an empty store.
func TestLoadCorruptDatabase(t *testing.T) {
	const db = "/spack/opt/.spack-db"
	const oneShard = `{"version": 1, "shards": [{"prefix": "a", "count": 1, "gen": 1}]}`
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string // error substring; empty means Open succeeds empty
	}{
		{"corrupt manifest", map[string]string{
			db + "/manifest.json": "{not json",
		}, "corrupt manifest"},
		{"manifest version 2", map[string]string{
			db + "/manifest.json": `{"version": 2, "shards": []}`,
		}, "manifest version 2 not supported"},
		{"missing shard", map[string]string{
			db + "/manifest.json": oneShard,
		}, "missing shard a"},
		{"corrupt shard", map[string]string{
			db + "/manifest.json": oneShard,
			db + "/shards/a.json": "{not json",
		}, "corrupt shard a"},
		{"lone index.json", map[string]string{
			db + "/index.json": "{not json",
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := simfs.New(simfs.TempFS)
			for p, data := range tc.files {
				if err := fs.MkdirAll(p[:strings.LastIndex(p, "/")]); err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(p, []byte(data)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(fs, "/spack/opt", SpackLayout{})
			if tc.want == "" {
				if err != nil || st.Len() != 0 {
					t.Fatalf("Open = %v, want an empty store", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSaveCrashSafety: a write failure mid-Save must never corrupt the
// on-disk database — the temp-file-plus-rename protocol leaves the
// previous state loadable.
func TestSaveCrashSafety(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		fs := simfs.New(simfs.TempFS)
		st, err := New(fs, "/spack/opt", SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		a := mustConcrete(t, "libelf@0.8.13")
		if _, _, err := st.Install(a, true, noopBuilder); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}

		// Every write now fails: the incremental Save must error out
		// without touching the final files.
		b := mustConcrete(t, "zlib")
		if _, _, err := st.Install(b, false, noopBuilder); err != nil {
			t.Fatal(err)
		}
		healthy := st.FS
		st.FS = healthy.FailAfter("write", 0)
		if err := st.Save(); err == nil {
			t.Fatal("Save with failing writes should error")
		}
		st.FS = healthy

		// A fresh handle still loads the pre-failure state cleanly.
		st2, err := Open(fs, "/spack/opt", SpackLayout{})
		if err != nil {
			t.Fatalf("database corrupted by failed save: %v", err)
		}
		if !st2.IsInstalled(a) {
			t.Error("pre-failure record lost")
		}

		// And once writes heal, Save persists the new record too.
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}
		st3, err := Open(fs, "/spack/opt", SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		if !st3.IsInstalled(a) || !st3.IsInstalled(b) {
			t.Error("post-recovery save incomplete")
		}
	})
}

// TestRenameFailureKeepsOldIndex: the rename itself failing also leaves
// the previous database intact (the temp file is cleaned up best-effort).
func TestRenameFailureKeepsOldIndex(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := New(fs, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustConcrete(t, "libelf@0.8.13")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	b := mustConcrete(t, "zlib")
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	healthy := st.FS
	st.FS = healthy.FailAfter("rename", 0)
	if err := st.Save(); err == nil {
		t.Fatal("Save with failing renames should error")
	}
	st.FS = healthy
	st2, err := Open(fs, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatalf("database corrupted by failed rename: %v", err)
	}
	if !st2.IsInstalled(a) {
		t.Error("pre-failure record lost")
	}
}

func TestReindexFromProvenance(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "libelf@0.8.12")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}

	// Lose the in-memory index; rebuild from .spack/spec provenance files.
	st2, err := New(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := st2.Reindex()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || st2.Len() != 2 {
		t.Fatalf("reindexed %d records (len %d)", n, st2.Len())
	}
	if !st2.IsInstalled(a) || !st2.IsInstalled(b) {
		t.Error("reindex missed records")
	}
}
