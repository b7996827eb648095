package relocate

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simfs"
)

func TestNewTableOrdersLongestSourceFirst(t *testing.T) {
	table := NewTable(map[string]string{
		"/spack/opt":              "/new/opt",
		"/spack/opt/x/libelf-1.0": "/new/opt/y/libelf-1.0",
		"/spack/opt/x":            "/new/opt/y",
	})
	if len(table) != 3 {
		t.Fatalf("table has %d entries, want 3", len(table))
	}
	for i := 1; i < len(table); i++ {
		if len(table[i].From) > len(table[i-1].From) {
			t.Fatalf("table not longest-first: %q after %q", table[i].From, table[i-1].From)
		}
	}
	if table[0].From != "/spack/opt/x/libelf-1.0" {
		t.Errorf("longest source = %q, want the nested prefix", table[0].From)
	}
}

func TestRewriteNestedPrefixes(t *testing.T) {
	table := NewTable(map[string]string{
		"/spack/opt":        "/site/store",
		"/spack/opt/libelf": "/site/store/libelf-relocated",
	})
	in := []byte("RPATH /spack/opt/libelf/lib\nroot=/spack/opt\n")
	out, counts := table.Rewrite(in)
	want := "RPATH /site/store/libelf-relocated/lib\nroot=/site/store\n"
	if string(out) != want {
		t.Errorf("relocated = %q, want %q", out, want)
	}
	// The nested prefix must win over its parent: one count each.
	if counts["/spack/opt/libelf"] != 1 || counts["/spack/opt"] != 1 {
		t.Errorf("counts = %v, want one occurrence of each source", counts)
	}
}

// TestRewritePrefixOfPrefix covers one store prefix being a plain string
// prefix of another (no path separator between them): the longer source
// must still win, and the shorter must not corrupt it.
func TestRewritePrefixOfPrefix(t *testing.T) {
	table := NewTable(map[string]string{
		"/opt/lib":    "/dst/short",
		"/opt/libelf": "/dst/long",
	})
	in := []byte("a=/opt/libelf b=/opt/lib c=/opt/libelf/lib\n")
	out, counts := table.Rewrite(in)
	want := "a=/dst/long b=/dst/short c=/dst/long/lib\n"
	if string(out) != want {
		t.Errorf("relocated = %q, want %q", out, want)
	}
	if counts["/opt/libelf"] != 2 || counts["/opt/lib"] != 1 {
		t.Errorf("counts = %v, want /opt/libelf:2 /opt/lib:1", counts)
	}
}

func TestRewriteNoOccurrences(t *testing.T) {
	table := NewTable(map[string]string{"/spack/opt": "/new"})
	in := []byte("plain payload with no store paths")
	out, counts := table.Rewrite(in)
	if string(out) != string(in) {
		t.Errorf("clean payload was rewritten: %q", out)
	}
	if len(counts) != 0 {
		t.Errorf("counts = %v, want empty", counts)
	}
}

func TestRewriteString(t *testing.T) {
	table := NewTable(map[string]string{"/a": "/b"})
	if got := table.RewriteString("/a/lib/libelf.so"); got != "/b/lib/libelf.so" {
		t.Errorf("RewriteString = %q", got)
	}
}

func TestIdentityCountsWithoutRewriting(t *testing.T) {
	table := Identity("/opt/pkg", "/opt")
	in := []byte("RPATH /opt/pkg/lib\n/opt/other\n")
	out, counts := table.Rewrite(in)
	if string(out) != string(in) {
		t.Errorf("identity table rewrote the payload: %q", out)
	}
	if counts["/opt/pkg"] != 1 || counts["/opt"] != 1 {
		t.Errorf("counts = %v, want /opt/pkg:1 /opt:1", counts)
	}
}

func TestCountsEqual(t *testing.T) {
	cases := []struct {
		got, want map[string]int
		eq        bool
	}{
		{map[string]int{"/a": 2}, map[string]int{"/a": 2}, true},
		{map[string]int{"/a": 2}, map[string]int{"/a": 3}, false},
		{map[string]int{"/a": 2, "/b": 0}, map[string]int{"/a": 2}, true},
		{map[string]int{}, map[string]int{"/a": 1}, false},
		{map[string]int{"/a": 1}, map[string]int{}, false},
		{map[string]int{}, map[string]int{}, true},
		// Zero-valued entries on the recorded side constrain nothing: a
		// packer that recorded a source with zero occurrences must not
		// force the re-count to mention it.
		{map[string]int{"/a": 1}, map[string]int{"/a": 1, "/b": 0}, true},
		{map[string]int{"/a": 0}, map[string]int{"/b": 0}, true},
	}
	for i, c := range cases {
		if got := CountsEqual(c.got, c.want); got != c.eq {
			t.Errorf("case %d: CountsEqual(%v, %v) = %v, want %v", i, c.got, c.want, got, c.eq)
		}
	}
}

func TestRecordedOrClean(t *testing.T) {
	want := map[string]map[string]int{"bin/app": {"/a": 1}}
	if !RecordedOrClean(want, "bin/app", map[string]int{"/a": 5}) {
		t.Error("recorded file rejected")
	}
	if !RecordedOrClean(want, "share/doc", map[string]int{}) {
		t.Error("clean unrecorded file rejected")
	}
	if RecordedOrClean(want, "share/doc", map[string]int{"/a": 1}) {
		t.Error("dirty unrecorded file accepted")
	}
	// A zero-occurrence count set is clean even when entries exist.
	if !RecordedOrClean(want, "share/doc", map[string]int{"/a": 0}) {
		t.Error("zero-occurrence unrecorded file rejected")
	}
}

func TestScanRPaths(t *testing.T) {
	content := []byte("RPATH /new/store/libelf/lib\nRPATH /old/store/libelf/lib\n")
	err := ScanRPaths("bin/app", content, "/old/store")
	var re *RPathError
	if !errors.As(err, &re) {
		t.Fatalf("ScanRPaths = %v, want *RPathError", err)
	}
	if re.RPath != "/old/store/libelf/lib" {
		t.Errorf("leaked rpath = %q", re.RPath)
	}
	if !IsRelocationError(err) {
		t.Error("RPathError not classified as a relocation error")
	}
	// Empty forbidden root disables the scan; a clean binary passes.
	if err := ScanRPaths("bin/app", content, ""); err != nil {
		t.Errorf("disabled scan errored: %v", err)
	}
	clean := []byte("RPATH /new/store/libelf/lib\n")
	if err := ScanRPaths("bin/app", clean, "/old/store"); err != nil {
		t.Errorf("clean binary rejected: %v", err)
	}
	// Prefix matching is path-aware: /old/store2 is not inside /old/store.
	other := []byte("RPATH /old/store2/lib\n")
	if err := ScanRPaths("bin/app", other, "/old/store"); err != nil {
		t.Errorf("sibling root rejected: %v", err)
	}
}

func TestSnapshotMaterializeRoundTrip(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	src := "/store/pkg-aaaa"
	for _, dir := range []string{src + "/lib", src + "/share"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile(src+"/lib/libz.so", []byte("RPATH /store/pkg-aaaa/lib\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(src+"/share/doc", []byte("no paths here")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(src+"/lib/libz.so", src+"/lib/libz.so.1"); err != nil {
		t.Fatal(err)
	}

	files, err := Snapshot(fs, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("snapshot has %d files, want 3", len(files))
	}

	dst := "/store/pkg-bbbb"
	meter := simfs.NewMeter()
	n, err := Materialize(fs, dst, files, Options{
		Table: NewTable(map[string]string{src: dst}),
		Meter: meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("materialized %d entries, want 3", n)
	}
	data, err := fs.ReadFile(dst + "/lib/libz.so")
	if err != nil || string(data) != "RPATH /store/pkg-bbbb/lib\n" {
		t.Errorf("rewritten file = %q, %v", data, err)
	}
	if target, err := fs.Readlink(dst + "/lib/libz.so.1"); err != nil || target != dst+"/lib/libz.so" {
		t.Errorf("rewritten symlink = %q, %v", target, err)
	}
	if meter.Cost() != 2*FileCPU {
		t.Errorf("meter charged %v, want %v (two regular files)", meter.Cost(), 2*FileCPU)
	}
}

func TestMaterializeVerifiesRecordedCounts(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	table := NewTable(map[string]string{"/old": "/new"})
	files := []File{{Path: "bin/app", Data: []byte("/old /old\n")}}

	// Re-count disagrees with the recorded table: CountError.
	_, err := Materialize(fs, "/dst", files, Options{
		Table: table,
		Want:  map[string]map[string]int{"bin/app": {"/old": 1}},
	})
	var ce *CountError
	if !errors.As(err, &ce) {
		t.Fatalf("Materialize = %v, want *CountError", err)
	}
	if !IsRelocationError(err) {
		t.Error("CountError not classified as a relocation error")
	}

	// Occurrences in a file the table never recorded: UnrecordedError.
	_, err = Materialize(fs, "/dst2", files, Options{
		Table: table,
		Want:  map[string]map[string]int{"bin/other": {"/old": 2}},
	})
	var ue *UnrecordedError
	if !errors.As(err, &ue) {
		t.Fatalf("Materialize = %v, want *UnrecordedError", err)
	}

	// Exact agreement passes.
	if _, err := Materialize(fs, "/dst3", files, Options{
		Table: table,
		Want:  map[string]map[string]int{"bin/app": {"/old": 2}},
	}); err != nil {
		t.Fatalf("agreeing counts rejected: %v", err)
	}
}

func TestMaterializeRejectsLeakedRPaths(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	files := []File{{Path: "bin/app", Data: []byte("RPATH /src/store/dep/lib\n")}}
	_, err := Materialize(fs, "/dst", files, Options{
		Table:      NewTable(map[string]string{"/src/store/pkg": "/dst"}),
		ForbidRoot: "/src/store",
	})
	var re *RPathError
	if !errors.As(err, &re) {
		t.Fatalf("Materialize = %v, want *RPathError", err)
	}
}

// rewriteOracle is the byte-at-a-time rewrite Rewrite replaced: at every
// position it tries each rule, longest source first, takes the first
// that matches and skips past it, else copies one byte.
func rewriteOracle(t Table, data []byte) ([]byte, map[string]int) {
	counts := make(map[string]int)
	s := string(data)
	var b strings.Builder
	for i := 0; i < len(s); {
		matched := false
		for _, r := range t {
			if strings.HasPrefix(s[i:], r.From) {
				b.WriteString(r.To)
				counts[r.From]++
				i += len(r.From)
				matched = true
				break
			}
		}
		if !matched {
			b.WriteByte(s[i])
			i++
		}
	}
	return []byte(b.String()), counts
}

// TestRewriteMatchesOracle compares Rewrite with the byte-at-a-time
// oracle, bytes and counts, over generated tables and inputs: nested
// prefixes, a source that is a plain string prefix of another, adjacent
// and overlapping occurrences, an external source outside the store
// root, targets longer and shorter than their sources, and empty and
// no-match inputs.
func TestRewriteMatchesOracle(t *testing.T) {
	root := "/spack/opt"
	sources := []string{
		root,
		root + "/libelf",        // nested in the root
		root + "/libelf-0.8.13", // the previous one is its string prefix
		root + "/libelf/lib",    // nested in a nested prefix
		root + "/libdwarf",
		"/usr/local/external", // an external outside the store root
		"aa",                  // overlaps itself: "aaa" holds two
		"aab",                 // overlaps "aa"
	}
	targets := []string{"/x", "/site/store/longer-than-the-source", "", "aa", "/spack/opt"}
	pieces := append([]string{"/", "lib", "a", "b", " ", "RPATH ", "\n", "-0.8.13", "/spack", "/usr/local"}, sources...)

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		pairs := map[string]string{}
		for _, src := range sources {
			if rng.Intn(2) == 0 {
				pairs[src] = targets[rng.Intn(len(targets))]
			}
		}
		table := NewTable(pairs)
		var in strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			in.WriteString(pieces[rng.Intn(len(pieces))])
		}
		data := []byte(in.String())

		got, gotCounts := table.Rewrite(data)
		want, wantCounts := rewriteOracle(table, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("table %v, input %q:\n got %q\nwant %q", table, data, got, want)
		}
		if len(gotCounts) != len(wantCounts) || !CountsEqual(gotCounts, wantCounts) {
			t.Fatalf("table %v, input %q: counts %v, want %v", table, data, gotCounts, wantCounts)
		}
	}

	for _, data := range [][]byte{nil, {}, []byte("no store paths here")} {
		table := NewTable(map[string]string{root: "/x", root + "/libelf": "/y"})
		got, counts := table.Rewrite(data)
		if !bytes.Equal(got, data) || len(counts) != 0 {
			t.Errorf("input %q: got %q, counts %v; want it unchanged and no counts", data, got, counts)
		}
	}
}
