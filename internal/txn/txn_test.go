package txn

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/simfs"
)

// memApplier is a minimal in-memory index for exercising record ops.
type memApplier struct {
	records  map[string]string // hash -> prefix
	synced   int
	failSync bool
}

func newMemApplier() *memApplier { return &memApplier{records: map[string]string{}} }

func (a *memApplier) InsertRecord(hash string, specJSON []byte, prefix string, meta RecordMeta) error {
	a.records[hash] = prefix
	return nil
}

func (a *memApplier) RemoveRecord(hash string) error {
	delete(a.records, hash)
	return nil
}

func (a *memApplier) Sync() error {
	if a.failSync {
		return fmt.Errorf("sync refused")
	}
	a.synced++
	return nil
}

const journalDir = "/opt/.spack-db/journal"

func readlink(t *testing.T, fs *simfs.FS, path string) string {
	t.Helper()
	target, err := fs.Readlink(path)
	if err != nil {
		t.Fatalf("readlink %s: %v", path, err)
	}
	return target
}

func TestCommitAppliesOpsInOrder(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	ap := newMemApplier()
	tx := Begin(fs, journalDir)

	if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/opt/pkg-1"); err != nil {
		t.Fatal(err)
	}
	tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Explicit: true, Origin: "source"})
	tx.StageWriteFile("/share/dotkit/pkg-1", []byte("module"))
	tx.StageLink("/view/pkg", "/opt/pkg-1")
	committed := false
	tx.OnCommit(func() { committed = true })

	if err := tx.Commit(ap); err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Error("commit hook did not run")
	}
	if ap.records["h1"] != "/opt/pkg-1" {
		t.Errorf("record not applied: %v", ap.records)
	}
	if ap.synced != 1 {
		t.Errorf("synced %d times", ap.synced)
	}
	if data, err := fs.ReadFile("/share/dotkit/pkg-1"); err != nil || string(data) != "module" {
		t.Errorf("module file = %q, %v", data, err)
	}
	if got := readlink(t, fs, "/view/pkg"); got != "/opt/pkg-1" {
		t.Errorf("link target = %q", got)
	}
	// The journal is retired on a fully applied commit.
	if names, err := fs.List(journalDir); err != nil || len(names) != 0 {
		t.Errorf("journal not retired: %v, %v", names, err)
	}
}

func TestCommitRetargetsLinkAtomically(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	fs.MkdirAll("/view")
	if err := fs.Symlink("/opt/old", "/view/pkg"); err != nil {
		t.Fatal(err)
	}
	tx := Begin(fs, journalDir)
	tx.StageLink("/view/pkg", "/opt/new")
	if err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := readlink(t, fs, "/view/pkg"); got != "/opt/new" {
		t.Errorf("retargeted link = %q", got)
	}
}

func TestRollbackRemovesCreatedPrefixes(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	tx := Begin(fs, journalDir)
	if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/opt/pkg-1")
	fs.WriteFile("/opt/pkg-1/partial", []byte("partial"))
	tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Explicit: true, Origin: "source"})

	var order []string
	tx.OnRollback(func() { order = append(order, "first") })
	tx.OnRollback(func() { order = append(order, "second") })
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if exists, _ := fs.Stat("/opt/pkg-1"); exists {
		t.Error("created prefix survived rollback")
	}
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Errorf("rollback hooks ran %v, want LIFO", order)
	}
	if names, err := fs.List(journalDir); err != nil || len(names) != 0 {
		t.Errorf("journal not retired: %v, %v", names, err)
	}
}

// TestRollbackAfterCommitPointRefused pins the Rollback contract that lets
// every transaction owner simply defer it: past the commit point it
// refuses with no side effects, and after a finished Commit it is a no-op.
func TestRollbackAfterCommitPointRefused(t *testing.T) {
	t.Run("commit point reached", func(t *testing.T) {
		fs := simfs.New(simfs.TempFS)
		ap := newMemApplier()
		ap.failSync = true
		tx := Begin(fs, journalDir)
		tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Origin: "source"})
		hooked := false
		tx.OnRollback(func() { hooked = true })
		err := tx.Commit(ap)
		var ce *CommitError
		if err == nil {
			t.Fatal("commit with failing sync should error")
		}
		if !errors.As(err, &ce) {
			t.Fatalf("commit error = %T %v, want *CommitError", err, err)
		}
		if rbErr := tx.Rollback(); rbErr == nil {
			t.Error("rollback past the commit point should be refused")
		}
		if hooked {
			t.Error("refused rollback ran an OnRollback hook")
		}
		// The journal stays for recovery.
		if names, _ := fs.List(journalDir); len(names) != 1 {
			t.Errorf("journal dir = %v, want the retained journal", names)
		}
	})
	t.Run("after commit", func(t *testing.T) {
		fs := simfs.New(simfs.TempFS)
		tx := Begin(fs, journalDir)
		if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
			t.Fatal(err)
		}
		fs.MkdirAll("/opt/pkg-1")
		fs.WriteFile("/opt/pkg-1/bin", []byte("bin"))
		tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Origin: "source"})
		hooked := false
		tx.OnRollback(func() { hooked = true })
		if err := tx.Commit(newMemApplier()); err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Errorf("rollback after commit = %v, want nil", err)
		}
		if hooked {
			t.Error("rollback after commit ran an OnRollback hook")
		}
		if exists, _ := fs.Stat("/opt/pkg-1/bin"); !exists {
			t.Error("rollback after commit removed the created prefix")
		}
	})
}

func TestRecoverRollsBackActiveJournal(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	tx := Begin(fs, journalDir)
	if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/opt/pkg-1")
	fs.WriteFile("/opt/pkg-1/partial", []byte("partial"))
	tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Origin: "source"})
	// Simulate a crash: the transaction is abandoned mid-flight.

	ap := newMemApplier()
	stats, err := Recover(fs, journalDir, ap)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RolledBack != 1 || stats.Replayed != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if exists, _ := fs.Stat("/opt/pkg-1"); exists {
		t.Error("recovery left the partial prefix")
	}
	if len(ap.records) != 0 {
		t.Errorf("recovery applied ops of an uncommitted txn: %v", ap.records)
	}
	if names, _ := fs.List(journalDir); len(names) != 0 {
		t.Errorf("journal not retired: %v", names)
	}
}

func TestRecoverReplaysCommittedJournal(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	ap := newMemApplier()
	ap.failSync = true // crash the first apply at the sync step
	tx := Begin(fs, journalDir)
	if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/opt/pkg-1")
	tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Explicit: true, Origin: "source"})
	tx.StageLink("/view/pkg", "/opt/pkg-1")
	if err := tx.Commit(ap); err == nil {
		t.Fatal("commit should have failed at sync")
	}

	// "New process": recovery rolls the committed journal forward.
	ap2 := newMemApplier()
	stats, err := Recover(fs, journalDir, ap2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 || stats.RolledBack != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if ap2.records["h1"] != "/opt/pkg-1" {
		t.Errorf("replay missed the record: %v", ap2.records)
	}
	if ap2.synced != 1 {
		t.Errorf("recovery synced %d times", ap2.synced)
	}
	if got := readlink(t, fs, "/view/pkg"); got != "/opt/pkg-1" {
		t.Errorf("replayed link = %q", got)
	}
	if exists, _ := fs.Stat("/opt/pkg-1"); !exists {
		t.Error("replay removed the committed prefix")
	}

	// Replaying an empty directory is a no-op.
	stats, err = Recover(fs, journalDir, ap2)
	if err != nil || stats.Replayed != 0 || stats.RolledBack != 0 {
		t.Errorf("idle recover = %+v, %v", stats, err)
	}
}

// TestCommitFaultSweep injects a failure at every successive filesystem
// operation of a commit and proves recovery always lands on exactly the
// pre- or the post-state — never in between. Which outcome depends on
// whether the fault struck before or after the commit point, so both must
// show up across the sweep.
func TestCommitFaultSweep(t *testing.T) {
	sawPre, sawPost := false, false
	for _, op := range []string{"write", "rename", "symlink", "remove", "mkdir"} {
		t.Run(op, func(t *testing.T) {
			for n := 0; n < 64; n++ {
				healthy := simfs.New(simfs.TempFS)
				healthy.MkdirAll("/opt")
				healthy.MkdirAll("/view")
				fs := healthy.FailAfter(op, n)

				ap := newMemApplier()
				tx := Begin(fs, journalDir)
				failed := false
				run := func() error {
					if err := tx.RecordPrefix("/opt/pkg-1"); err != nil {
						return err
					}
					if err := fs.MkdirAll("/opt/pkg-1"); err != nil {
						return err
					}
					if err := fs.WriteFile("/opt/pkg-1/payload", []byte("payload")); err != nil {
						return err
					}
					tx.StageInsertRecord("h1", []byte(`{}`), "/opt/pkg-1", RecordMeta{Explicit: true, Origin: "source"})
					tx.StageWriteFile("/share/dotkit/pkg-1", []byte("module"))
					tx.StageLink("/view/pkg", "/opt/pkg-1")
					return tx.Commit(ap)
				}
				if err := run(); err != nil {
					failed = true
					// In-process abort mirrors a crash: roll back when still
					// possible, otherwise leave the journal for recovery.
					_ = tx.Rollback()
				}

				// The "new process" recovers on the healed filesystem. Its
				// index starts from what the crashed process synced to disk.
				ap2 := newMemApplier()
				if ap.synced > 0 {
					for h, p := range ap.records {
						ap2.records[h] = p
					}
				}
				if _, err := Recover(healthy, journalDir, ap2); err != nil {
					t.Fatalf("%s/%d: recover: %v", op, n, err)
				}
				prefixExists, _ := healthy.Stat("/opt/pkg-1")
				_, hasRecord := ap2.records["h1"]
				moduleExists, _ := healthy.Stat("/share/dotkit/pkg-1")
				_, linkErr := healthy.Readlink("/view/pkg")
				linkExists := linkErr == nil

				post := prefixExists && hasRecord && moduleExists && linkExists
				pre := !prefixExists && !hasRecord && !moduleExists && !linkExists
				if !pre && !post {
					t.Fatalf("%s fault at %d: mixed state (prefix=%v record=%v module=%v link=%v)",
						op, n, prefixExists, hasRecord, moduleExists, linkExists)
				}
				if pre {
					sawPre = true
				}
				if post {
					sawPost = true
				}
				if !failed && !post {
					t.Fatalf("%s fault at %d: clean commit but pre-state", op, n)
				}
				if !failed {
					break // fault budget exhausted without tripping: done
				}
			}
		})
	}
	if !sawPre || !sawPost {
		t.Errorf("sweep saw pre=%v post=%v; want both outcomes", sawPre, sawPost)
	}
}
