package simfs

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The op interpreter below drives the tree and the flat-map oracle with
// the same operations and compares every observable after each one. Its
// names include bytes that sort below '/', so a depth-first walk by name
// would visit /b/x before /b-c, which full-path order puts first.
var opNames = []string{"a", "b", "b-c", "b.d", "+"}

var opFailKinds = []string{"write", "read", "mkdir", "symlink", "remove", "rename"}

// opPaths is every clean path of depth 0 to 3 over opNames: the universe
// each comparison observes.
var opPaths = func() []string {
	out := []string{"/"}
	level := []string{""}
	for depth := 0; depth < 3; depth++ {
		var next []string
		for _, p := range level {
			for _, n := range opNames {
				next = append(next, p+"/"+n)
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}()

type opReader struct {
	data []byte
	i    int
	dir  string // the last MkdirAll argument, clean
}

func (r *opReader) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1])
}

// path reads a path of depth 0 to 3, or a child of the last MkdirAll,
// sometimes in an unclean spelling. The root is rare, so that RemoveAll
// seldom empties the whole tree.
func (r *opReader) path() string {
	b := r.next()
	p := ""
	depth := [8]int{0, 1, 2, 3, 1, 2, -1, -1}[b%8]
	if depth < 0 && r.dir != "" && len(strings.Split(r.dir, "/")) <= 3 {
		p, depth = strings.TrimSuffix(r.dir, "/"), 1
	}
	for k := 0; k < depth; k++ {
		p += "/" + opNames[r.next()%len(opNames)]
	}
	switch b / 8 % 4 {
	case 1:
		p += "/"
	case 2:
		p = strings.TrimPrefix(p, "/")
	case 3:
		p = "/x/.." + p
	}
	return p
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

var errStopWalk = errors.New("stop")

// runOps interprets data as a sequence of filesystem operations, applies
// each to a tree FS and to the flat oracle, and fails on the first
// difference in a result, an error string, the tree's contents or the
// meter.
func runOps(t testing.TB, data []byte) {
	tree, flat := New(TempFS), newFlat(TempFS)
	curTree, curFlat := tree, flat
	r := &opReader{data: data}
	for step := 0; r.i < len(r.data) && step < 128; step++ {
		var what, got, want string
		// Creating ops come up three times as often as the rest, so trees
		// grow.
		switch op := r.next() % 16; op {
		case 0, 9, 12:
			p := r.path()
			r.dir = clean(p)
			what = "MkdirAll " + p
			got, want = errText(curTree.MkdirAll(p)), errText(curFlat.MkdirAll(p))
		case 1, 10, 13, 14:
			p, n := r.path(), r.next()
			payload := []byte(strings.Repeat(string(rune('a'+n%26)), n%8))
			what = "WriteFile " + p
			got, want = errText(curTree.WriteFile(p, payload)), errText(curFlat.WriteFile(p, payload))
		case 2, 11, 15:
			target := ""
			if r.next()%5 != 0 {
				target = r.path()
			}
			p := r.path()
			what = "Symlink " + target + " " + p
			got, want = errText(curTree.Symlink(target, p)), errText(curFlat.Symlink(target, p))
		case 3:
			from, to := r.path(), r.path()
			what = "Rename " + from + " " + to
			got, want = errText(curTree.Rename(from, to)), errText(curFlat.Rename(from, to))
		case 4:
			p := r.path()
			what = "Remove " + p
			got, want = errText(curTree.Remove(p)), errText(curFlat.Remove(p))
		case 5:
			p := r.path()
			what = "RemoveAll " + p
			got, want = errText(curTree.RemoveAll(p)), errText(curFlat.RemoveAll(p))
		case 6:
			p := r.path()
			what = "ReadFile " + p
			data, err := curTree.ReadFile(p)
			wdata, werr := curFlat.ReadFile(p)
			got, want = errText(err)+"|"+string(data), errText(werr)+"|"+string(wdata)
		case 7:
			if b := r.next(); b%4 == 0 {
				what = "base handles"
				curTree, curFlat = tree, flat
			} else {
				kind, n := opFailKinds[b%len(opFailKinds)], b/len(opFailKinds)%4
				what = "FailAfter " + kind
				curTree, curFlat = tree.FailAfter(kind, n), flat.FailAfter(kind, n)
			}
		case 8:
			// A walk whose callback removes each odd-numbered path, or its
			// whole parent directory, and may stop early: Walk must skip
			// what fn removed before its turn.
			p, b := clean(r.path()), r.next()
			if i := strings.IndexByte(p[1:], '/'); i >= 0 {
				p = p[:i+1] // walk a top-level directory, where the files are
			}
			what = "Walk+RemoveAll " + p
			walk := func(walk func(string, func(string, bool) error) error, removeAll func(string) error) string {
				var seen []string
				visits := 0
				err := walk(p, func(q string, link bool) error {
					seen = append(seen, q+map[bool]string{true: "@"}[link])
					if visits++; visits == b%8 {
						return errStopWalk
					}
					if visits%2 == 1 {
						if b/8%2 == 1 {
							q = parentDir(q)
						}
						seen = append(seen, "rm:"+errText(removeAll(q)))
					}
					return nil
				})
				return strings.Join(seen, ",") + "|" + errText(err)
			}
			got, want = walk(curTree.Walk, curTree.RemoveAll), walk(curFlat.Walk, curFlat.RemoveAll)
		}
		if got != want {
			t.Fatalf("step %d %s: tree %q, flat %q", step, what, got, want)
		}
		compareTrees(t, step, what, tree, flat)
	}
}

// compareTrees checks every observable of every path in opPaths, then
// the file counts and the meters (which the observations also charge).
func compareTrees(t testing.TB, step int, what string, tree *FS, flat *flatFS) {
	t.Helper()
	fail := func(obs, p string, got, want any) {
		t.Helper()
		t.Fatalf("step %d after %s: %s(%s): tree %v, flat %v", step, what, obs, p, got, want)
	}
	for _, p := range opPaths {
		ge, gd := tree.Stat(p)
		if we, wd := flat.Stat(p); ge != we || gd != wd {
			fail("Stat", p, [2]bool{ge, gd}, [2]bool{we, wd})
		}
		gl, gerr := tree.Readlink(p)
		wl, werr := flat.Readlink(p)
		if gl != wl || errText(gerr) != errText(werr) {
			fail("Readlink", p, gl+errText(gerr), wl+errText(werr))
		}
		if g, w := tree.IsSymlink(p), flat.IsSymlink(p); g != w {
			fail("IsSymlink", p, g, w)
		}
		if g, w := tree.TreeSize(p), flat.TreeSize(p); g != w {
			fail("TreeSize", p, g, w)
		}
		gn, gerr := tree.List(p)
		wn, werr := flat.List(p)
		if !reflect.DeepEqual(gn, wn) || errText(gerr) != errText(werr) {
			fail("List", p, gn, wn)
		}
		collect := func(walk func(string, func(string, bool) error) error) []string {
			var seen []string
			walk(p, func(q string, link bool) error {
				seen = append(seen, q+map[bool]string{true: "@"}[link])
				return nil
			})
			return seen
		}
		if g, w := collect(tree.Walk), collect(flat.Walk); !reflect.DeepEqual(g, w) {
			fail("Walk", p, g, w)
		}
	}
	if g, w := tree.FileCount(), flat.FileCount(); g != w {
		fail("FileCount", "", g, w)
	}
	if g, w := tree.Meter().Ops(), flat.meter.Ops(); !reflect.DeepEqual(g, w) {
		fail("Meter.Ops", "", g, w)
	}
	if g, w := tree.Meter().Cost(), flat.meter.Cost(); g != w {
		fail("Meter.Cost", "", g, w)
	}
}

// opSeeds are hand-written op sequences: nested prefixes whose names sort
// below '/', replacing renames, a RemoveAll of the root, and a walk that
// removes what it visits.
var opSeeds = [][]byte{
	// MkdirAll /b/b; write /b-c, /b/b/a and /b/a; a removing walk of /.
	{0, 2, 1, 1, 1, 1, 2, 3, 1, 3, 1, 1, 0, 5, 1, 2, 1, 0, 2, 8, 0, 8},
	// Symlink /a/b -> /a/a, rename it over /a/a (a self-loop), read it,
	// then write a regular file over the link.
	{0, 1, 0, 1, 2, 0, 0, 5, 2, 1, 2, 0, 0, 2, 0, 1, 3, 2, 0, 1, 2, 0, 0, 6, 2, 0, 0, 1, 2, 0, 0, 3},
	// MkdirAll /b/b/b, write /b/a, RemoveAll /, write /+, MkdirAll /a/b.
	{0, 3, 1, 1, 1, 1, 2, 1, 0, 1, 5, 0, 1, 1, 4, 2, 0, 2, 0, 1},
	// Through a handle whose second rename fails: rename /a/a over /a/b,
	// fail to rename /a/b; then a removing walk of /a.
	{7, 11, 0, 1, 0, 1, 2, 0, 0, 1, 1, 2, 0, 1, 2, 3, 2, 0, 0, 2, 0, 1, 3, 2, 0, 1, 2, 0, 4, 7, 0, 8, 1, 0, 0},
}

func TestTreeMatchesFlatOracle(t *testing.T) {
	for _, seed := range opSeeds {
		runOps(t, seed)
	}
	rng := rand.New(rand.NewSource(29))
	runs := 150
	if testing.Short() {
		runs = 20
	}
	for i := 0; i < runs; i++ {
		data := make([]byte, 100+rng.Intn(300))
		rng.Read(data)
		runOps(t, data)
	}
}

func FuzzFSOps(f *testing.F) {
	for _, seed := range opSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, data)
	})
}

func TestRemoveAllRoot(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", []byte("x"))
	fs.WriteFile("/top", []byte("y"))
	if err := fs.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if ex, isDir := fs.Stat("/"); !ex || !isDir {
		t.Fatal("RemoveAll(\"/\") removed the root")
	}
	if ex, _ := fs.Stat("/a/b/f"); ex || fs.FileCount() != 0 {
		t.Errorf("RemoveAll(\"/\") left %d files", fs.FileCount())
	}
	if names, err := fs.List("/"); err != nil || len(names) != 0 {
		t.Errorf("List(\"/\") = %v, %v", names, err)
	}
	if err := fs.WriteFile("/x", []byte("z")); err != nil {
		t.Errorf("write after emptying the tree: %v", err)
	}
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Errorf("mkdir after emptying the tree: %v", err)
	}
}

func TestMkdirAllExistingAllocatesNothing(t *testing.T) {
	fs := New(TempFS)
	if err := fs.MkdirAll("/spack/opt/linux-x86_64/gcc-4.9.2/libelf-0.8.13-abcdef"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		fs.MkdirAll("/spack/opt/linux-x86_64/gcc-4.9.2/libelf-0.8.13-abcdef")
	}); n != 0 {
		t.Errorf("MkdirAll of an existing directory: %v allocations", n)
	}
	// The "is a file" error and the meter charge are unchanged.
	fs.WriteFile("/spack/f", nil)
	before := fs.Meter().Ops()["mkdir"]
	if err := fs.MkdirAll("/spack/f/sub"); err == nil || !strings.Contains(err.Error(), "/spack/f: is a file") {
		t.Errorf("mkdir through a file: %v", err)
	}
	if fs.Meter().Ops()["mkdir"] != before {
		t.Error("failed mkdir charged the meter")
	}
}

// TestConcurrentTreeOps races writers that grow, rename and tear down
// subtrees against readers that walk, list and size the whole tree; run
// it under -race. Afterwards the chains and the index must agree.
func TestConcurrentTreeOps(t *testing.T) {
	fs := New(TempFS)
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			view := fs.WithMeter(NewMeter())
			root := "/w" + string(rune('a'+g))
			for i := 0; i < 100; i++ {
				dir := root + "/d" + string(rune('a'+i%5))
				view.MkdirAll(dir + "/sub")
				view.WriteFile(dir+"/f.tmp", []byte("x"))
				view.Rename(dir+"/f.tmp", dir+"/f")
				view.Symlink(dir+"/f", dir+"/sub/l")
				if i%7 == 0 {
					view.RemoveAll(dir)
				}
			}
			done <- true
		}(g)
	}
	go func() {
		for i := 0; i < 100; i++ {
			fs.Walk("/", func(string, bool) error { return nil })
			fs.List("/")
			fs.TreeSize("/")
		}
		done <- true
	}()
	for g := 0; g < 5; g++ {
		<-done
	}
	walked := 0
	fs.Walk("/", func(string, bool) error { walked++; return nil })
	if walked != fs.FileCount() {
		t.Errorf("Walk visits %d files, the index holds %d", walked, fs.FileCount())
	}
}
