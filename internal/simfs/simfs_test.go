package simfs

import (
	"errors"
	"path"
	"strings"
	"testing"
	"time"
)

func TestMkdirWriteRead(t *testing.T) {
	fs := New(TempFS)
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/file.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("data = %q", data)
	}
}

func TestWriteRequiresParent(t *testing.T) {
	fs := New(TempFS)
	if err := fs.WriteFile("/nope/file", []byte("x")); err == nil {
		t.Error("write without parent should fail")
	}
}

func TestWriteToDirectoryFails(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	if err := fs.WriteFile("/d", []byte("x")); err == nil {
		t.Error("writing over a directory should fail")
	}
}

func TestMkdirOverFileFails(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/a")
	fs.WriteFile("/a/f", []byte("x"))
	if err := fs.MkdirAll("/a/f/sub"); err == nil {
		t.Error("mkdir through a file should fail")
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(TempFS)
	if _, err := fs.ReadFile("/missing"); err == nil {
		t.Error("reading missing file should fail")
	}
	pe, ok := err0(fs).(*PathError)
	_ = pe
	_ = ok
}

func err0(fs *FS) error {
	_, err := fs.ReadFile("/missing")
	return err
}

func TestStat(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/dir")
	fs.WriteFile("/dir/f", []byte("x"))
	if ex, isDir := fs.Stat("/dir"); !ex || !isDir {
		t.Error("dir stat wrong")
	}
	if ex, isDir := fs.Stat("/dir/f"); !ex || isDir {
		t.Error("file stat wrong")
	}
	if ex, _ := fs.Stat("/nope"); ex {
		t.Error("missing stat wrong")
	}
}

func TestSymlink(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/real")
	fs.WriteFile("/real/target", []byte("payload"))
	fs.MkdirAll("/links")
	if err := fs.Symlink("/real/target", "/links/ln"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/links/ln")
	if err != nil || string(data) != "payload" {
		t.Errorf("read through symlink = %q, %v", data, err)
	}
	if !fs.IsSymlink("/links/ln") || fs.IsSymlink("/real/target") {
		t.Error("IsSymlink wrong")
	}
	tgt, err := fs.Readlink("/links/ln")
	if err != nil || tgt != "/real/target" {
		t.Errorf("Readlink = %q, %v", tgt, err)
	}
	if _, err := fs.Readlink("/real/target"); err == nil {
		t.Error("Readlink of regular file should fail")
	}
	// Existing destination refuses.
	if err := fs.Symlink("/x", "/links/ln"); err == nil {
		t.Error("symlink over existing should fail")
	}
}

// TestSymlinkEmptyTarget: symlink(2) refuses an empty target with
// ENOENT; the simulated call must fail too and leave nothing behind,
// not an empty regular file.
func TestSymlinkEmptyTarget(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/links")
	var pe *PathError
	if err := fs.Symlink("", "/links/ln"); !errors.As(err, &pe) || pe.Op != "symlink" {
		t.Fatalf("Symlink with empty target = %v, want a symlink *PathError", err)
	}
	if exists, _ := fs.Stat("/links/ln"); exists {
		t.Error("a failed symlink left a file behind")
	}
}

func TestSymlinkChainAndLoop(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/real", []byte("x"))
	fs.Symlink("/d/real", "/d/l1")
	fs.Symlink("/d/l1", "/d/l2")
	if data, err := fs.ReadFile("/d/l2"); err != nil || string(data) != "x" {
		t.Errorf("chained symlink read = %q, %v", data, err)
	}
	// Loop: must error, not hang.
	fs.Symlink("/d/loopB", "/d/loopA")
	fs.Symlink("/d/loopA", "/d/loopB")
	if _, err := fs.ReadFile("/d/loopA"); err == nil {
		t.Error("symlink loop should error")
	}
}

func TestRemove(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("x"))
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if ex, _ := fs.Stat("/d/f"); ex {
		t.Error("file survived Remove")
	}
	if err := fs.Remove("/d/f"); err == nil {
		t.Error("double remove should fail")
	}
	if err := fs.Remove("/d"); err == nil {
		t.Error("Remove of directory should fail")
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/tree/sub")
	fs.WriteFile("/tree/a", []byte("x"))
	fs.WriteFile("/tree/sub/b", []byte("x"))
	fs.MkdirAll("/treeother")
	fs.WriteFile("/treeother/keep", []byte("x"))
	if err := fs.RemoveAll("/tree"); err != nil {
		t.Fatal(err)
	}
	if ex, _ := fs.Stat("/tree"); ex {
		t.Error("tree survived RemoveAll")
	}
	// Prefix must not over-match sibling "treeother".
	if ex, _ := fs.Stat("/treeother/keep"); !ex {
		t.Error("RemoveAll removed sibling with shared name prefix")
	}
	if err := fs.RemoveAll("/tree"); err != nil {
		t.Error("RemoveAll of missing path should be a no-op")
	}
}

func TestList(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d/sub")
	fs.WriteFile("/d/b", []byte("x"))
	fs.WriteFile("/d/a", []byte("x"))
	fs.WriteFile("/d/sub/deep", []byte("x"))
	got, err := fs.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,b,sub" {
		t.Errorf("List = %v", got)
	}
	if _, err := fs.List("/nope"); err == nil {
		t.Error("List of missing dir should fail")
	}
}

func TestWalk(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/w/s")
	fs.WriteFile("/w/a", []byte("x"))
	fs.WriteFile("/w/s/b", []byte("x"))
	fs.Symlink("/w/a", "/w/s/ln")
	var files, links []string
	err := fs.Walk("/w", func(p string, isLink bool) error {
		if isLink {
			links = append(links, p)
		} else {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(files, ",") != "/w/a,/w/s/b" {
		t.Errorf("files = %v", files)
	}
	if strings.Join(links, ",") != "/w/s/ln" {
		t.Errorf("links = %v", links)
	}
}

func TestMeterCharges(t *testing.T) {
	fs := New(NFS)
	fs.MkdirAll("/d")
	before := fs.Meter().Cost()
	fs.WriteFile("/d/f", make([]byte, 10*1024))
	after := fs.Meter().Cost()
	if after <= before {
		t.Error("write did not charge the meter")
	}
	ops := fs.Meter().Ops()
	if ops["write"] != 1 || ops["mkdir"] != 1 {
		t.Errorf("ops = %v", ops)
	}
}

func TestNFSCostsMoreThanTemp(t *testing.T) {
	run := func(lat Latency) time.Duration {
		fs := New(lat)
		fs.MkdirAll("/work")
		for i := 0; i < 100; i++ {
			fs.WriteFile("/work/f", []byte("data"))
			fs.ReadFile("/work/f")
			fs.Stat("/work/f")
		}
		return fs.Meter().Cost()
	}
	tmp, nfs := run(TempFS), run(NFS)
	if nfs < 10*tmp {
		t.Errorf("NFS (%v) should dwarf temp (%v) on metadata-heavy workloads", nfs, tmp)
	}
}

func TestWithMeterSharesTree(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/shared")
	m := NewMeter()
	view := fs.WithMeter(m)
	if err := view.WriteFile("/shared/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Visible through the original handle.
	if _, err := fs.ReadFile("/shared/f"); err != nil {
		t.Error("tree not shared between meter views")
	}
	// Cost charged to the view's meter, not the base meter.
	if m.Cost() == 0 {
		t.Error("view meter uncharged")
	}
}

func TestWithLatencySharesTree(t *testing.T) {
	fs := New(TempFS)
	nfsView := fs.WithLatency(NFS)
	if nfsView.Latency().Name != "nfs" {
		t.Error("latency not applied")
	}
	fs.MkdirAll("/x")
	if ex, _ := nfsView.Stat("/x"); !ex {
		t.Error("tree not shared between latency views")
	}
}

func TestWriteFileIsolatesCallerBuffer(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	buf := []byte("original")
	fs.WriteFile("/d/f", buf)
	buf[0] = 'X'
	data, _ := fs.ReadFile("/d/f")
	if string(data) != "original" {
		t.Error("FS aliases caller buffer")
	}
	data[0] = 'Y'
	data2, _ := fs.ReadFile("/d/f")
	if string(data2) != "original" {
		t.Error("FS leaks internal buffer")
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/c")
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			m := NewMeter()
			view := fs.WithMeter(m)
			for i := 0; i < 200; i++ {
				p := "/c/file" + string(rune('a'+g))
				view.WriteFile(p, []byte("x"))
				view.ReadFile(p)
				view.Stat(p)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if fs.FileCount() != 8 {
		t.Errorf("FileCount = %d", fs.FileCount())
	}
}

func TestFileCount(t *testing.T) {
	fs := New(TempFS)
	if fs.FileCount() != 0 {
		t.Error("fresh fs should be empty")
	}
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a", nil)
	fs.Symlink("/d/a", "/d/l")
	if fs.FileCount() != 2 {
		t.Errorf("FileCount = %d", fs.FileCount())
	}
}

func TestPathCleaning(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("d//x/../y")
	if ex, isDir := fs.Stat("/d/y"); !ex || !isDir {
		t.Error("path cleaning failed")
	}
}

func TestRename(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/old", []byte("content"))
	if err := fs.Rename("/d/old", "/d/new"); err != nil {
		t.Fatal(err)
	}
	if ex, _ := fs.Stat("/d/old"); ex {
		t.Error("source survived rename")
	}
	data, err := fs.ReadFile("/d/new")
	if err != nil || string(data) != "content" {
		t.Errorf("renamed content = %q, %v", data, err)
	}
}

func TestRenameReplacesExisting(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/tmp", []byte("fresh"))
	fs.WriteFile("/d/target", []byte("stale"))
	if err := fs.Rename("/d/tmp", "/d/target"); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/d/target")
	if string(data) != "fresh" {
		t.Errorf("target = %q after replacing rename", data)
	}
	if fs.FileCount() != 1 {
		t.Errorf("FileCount = %d", fs.FileCount())
	}
}

func TestRenameErrors(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d/sub")
	fs.WriteFile("/d/f", []byte("x"))
	if err := fs.Rename("/d/missing", "/d/out"); err == nil {
		t.Error("rename of missing source should fail")
	}
	if err := fs.Rename("/d/sub", "/d/out"); err == nil {
		t.Error("rename of a directory should fail")
	}
	if err := fs.Rename("/d/f", "/d/sub"); err == nil {
		t.Error("rename onto a directory should fail")
	}
	if err := fs.Rename("/d/f", "/nodir/out"); err == nil {
		t.Error("rename into a missing parent should fail")
	}
	if data, _ := fs.ReadFile("/d/f"); string(data) != "x" {
		t.Error("failed renames must not disturb the source")
	}
}

func TestRenameSymlink(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/target", []byte("x"))
	fs.Symlink("/d/target", "/d/link")
	if err := fs.Rename("/d/link", "/d/link2"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsSymlink("/d/link2") {
		t.Error("rename dropped symlink-ness")
	}
	if got, _ := fs.Readlink("/d/link2"); got != "/d/target" {
		t.Errorf("link target = %q", got)
	}
}

func TestRenameFaultInjection(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/d")
	fs.WriteFile("/d/a", []byte("x"))
	failing := fs.FailAfter("rename", 0)
	if err := failing.Rename("/d/a", "/d/b"); err == nil {
		t.Error("injected rename fault did not fire")
	}
	if ex, _ := fs.Stat("/d/a"); !ex {
		t.Error("failed rename moved the file")
	}
}

// TestCleanFastPathMatchesPathClean checks the allocation-free helpers
// against package path on every string of up to eight bytes over '/',
// '.' and 'a': isClean(p) holds exactly when p is absolute and
// path.Clean(p) == p, clean always agrees with the original
// normalization, and parentDir equals path.Dir on clean paths.
func TestCleanFastPathMatchesPathClean(t *testing.T) {
	const alphabet = "/.a"
	paths := []string{""}
	for n, level := 0, []string{""}; n < 8; n++ {
		var next []string
		for _, p := range level {
			for i := 0; i < len(alphabet); i++ {
				next = append(next, p+alphabet[i:i+1])
			}
		}
		paths = append(paths, next...)
		level = next
	}
	for _, p := range paths {
		want := strings.HasPrefix(p, "/") && path.Clean(p) == p
		if got := isClean(p); got != want {
			t.Fatalf("isClean(%q) = %v, want %v", p, got, want)
		}
		if got, want := clean(p), path.Clean("/"+p); got != want {
			t.Fatalf("clean(%q) = %q, want %q", p, got, want)
		}
		if want {
			if got, want := parentDir(p), path.Dir(p); got != want {
				t.Fatalf("parentDir(%q) = %q, want %q", p, got, want)
			}
		}
	}
}
