package relocate

import (
	"fmt"
	"strings"

	"repro/internal/buildenv"
	"repro/internal/simfs"
)

// File is one file or symlink of a prefix tree being relocated. Path is
// relative to the prefix root.
type File struct {
	Path    string
	Symlink string
	Data    []byte
}

// CountError reports a file whose re-counted occurrences disagree with
// the recorded relocation table — the file set was packed against a
// different tree than it claims.
type CountError struct {
	Path string
	Got  map[string]int
	Want map[string]int
}

func (e *CountError) Error() string {
	return fmt.Sprintf("relocate: %s: relocation count mismatch (got %v, recorded %v)", e.Path, e.Got, e.Want)
}

// UnrecordedError reports a file carrying source-path occurrences the
// relocation table never recorded.
type UnrecordedError struct {
	Path   string
	Counts map[string]int
}

func (e *UnrecordedError) Error() string {
	return fmt.Sprintf("relocate: %s: unrecorded path occurrences %v", e.Path, e.Counts)
}

// RPathError reports an embedded rpath that still points into the source
// root after rewriting — the isolation §3.5.2 bought would be lost.
type RPathError struct {
	Path  string
	RPath string
	Root  string
}

func (e *RPathError) Error() string {
	return fmt.Sprintf("relocate: %s: rpath %s still points into source root %s", e.Path, e.RPath, e.Root)
}

// IsRelocationError reports whether err is one of the relocation-defect
// errors (count mismatch, unrecorded occurrences, leaked rpath) as
// opposed to an I/O failure.
func IsRelocationError(err error) bool {
	switch err.(type) {
	case *CountError, *UnrecordedError, *RPathError:
		return true
	}
	return false
}

// ScanRPaths checks a rewritten file's embedded rpaths against a
// forbidden source root: after relocation no rpath may still point into
// the tree the bytes came from. An empty root disables the scan.
func ScanRPaths(filePath string, content []byte, forbidRoot string) error {
	if forbidRoot == "" {
		return nil
	}
	for _, rp := range buildenv.BinaryRPATHs(content) {
		if rp == forbidRoot || strings.HasPrefix(rp, forbidRoot+"/") {
			return &RPathError{Path: filePath, RPath: rp, Root: forbidRoot}
		}
	}
	return nil
}

// Snapshot captures a prefix tree as a relocatable file set: every
// regular file's bytes and every symlink's target, paths relative to the
// prefix, in the filesystem's walk order.
func Snapshot(fs *simfs.FS, prefix string) ([]File, error) {
	var out []File
	err := fs.Walk(prefix, func(p string, isLink bool) error {
		rel := strings.TrimPrefix(p, prefix+"/")
		if isLink {
			target, err := fs.Readlink(p)
			if err != nil {
				return err
			}
			out = append(out, File{Path: rel, Symlink: target})
			return nil
		}
		data, err := fs.ReadFile(p)
		if err != nil {
			return err
		}
		out = append(out, File{Path: rel, Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Options configures Materialize.
type Options struct {
	// Table maps source paths to their locations under the target.
	Table Table
	// Want records expected per-file occurrence counts (by relative
	// path). When non-nil every rewritten file is verified: recorded
	// files must re-count exactly, and unrecorded files must carry no
	// occurrences at all. Nil skips verification (trusted local source).
	Want map[string]map[string]int
	// ForbidRoot rejects any file whose rewritten rpaths still point
	// into this tree; empty disables the scan.
	ForbidRoot string
	// Meter, when set, is charged FileCPU per regular file — the
	// simulated cost of scanning and rewriting it.
	Meter *simfs.Meter
}

// Materialize writes a relocated file set into prefix: directories are
// created as needed, symlink targets are rewritten through the table,
// and each regular file's bytes are rewritten, verified against the
// recorded counts, rpath-scanned, and written once, to its final path.
// prefix must be a new tree owned by a transaction that journaled it
// before its first byte (store.InstallTxn): a failure part-way leaves
// files behind, and the rollback, or recovery after a crash, removes the
// whole prefix. Returns how many files and symlinks were written.
func Materialize(fs *simfs.FS, prefix string, files []File, o Options) (int, error) {
	made := map[string]bool{prefix: true}
	n := 0
	for _, f := range files {
		target := prefix + "/" + f.Path
		dir := prefix
		if i := strings.LastIndexByte(f.Path, '/'); i >= 0 {
			dir = target[:len(prefix)+1+i] // MkdirAll cleans it
		}
		if !made[dir] {
			if err := fs.MkdirAll(dir); err != nil {
				return n, err
			}
			made[dir] = true
		}
		if f.Symlink != "" {
			if err := fs.Symlink(o.Table.RewriteString(f.Symlink), target); err != nil {
				return n, err
			}
			n++
			continue
		}
		out, counts := o.Table.Rewrite(f.Data)
		if o.Want != nil {
			if want, recorded := o.Want[f.Path]; recorded && !CountsEqual(counts, want) {
				return n, &CountError{Path: f.Path, Got: counts, Want: want}
			}
			if !RecordedOrClean(o.Want, f.Path, counts) {
				return n, &UnrecordedError{Path: f.Path, Counts: counts}
			}
		}
		if o.Meter != nil {
			o.Meter.Add("relocate", FileCPU)
		}
		if err := ScanRPaths(f.Path, out, o.ForbidRoot); err != nil {
			return n, err
		}
		if err := fs.WriteFile(target, out); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
