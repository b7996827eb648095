// Package simfs provides the filesystem substrate for the build simulator:
// an in-memory tree of directories, files and symbolic links with a
// per-operation latency model. Two calibrated profiles reproduce the
// filesystems of SC'15 §3.5.3 — a node-local temporary filesystem and a
// remotely mounted NFS home directory, whose metadata-operation costs make
// builds "as much as 62.7% slower". Latencies accumulate on a virtual
// clock (a Meter) rather than real sleeps, so experiments are fast and
// deterministic while preserving the paper's relative shapes.
package simfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Latency is a filesystem cost profile. PerKBWrite/PerKBRead scale with
// payload size; the rest are flat per-operation costs.
type Latency struct {
	Name       string
	Stat       time.Duration
	Open       time.Duration
	Read       time.Duration
	Write      time.Duration
	Create     time.Duration
	Mkdir      time.Duration
	Symlink    time.Duration
	Remove     time.Duration
	PerKBRead  time.Duration
	PerKBWrite time.Duration
}

// TempFS models a fast, locally mounted temporary filesystem — the build
// location Spack uses by default (§3.5.3).
var TempFS = Latency{
	Name:       "tmp",
	Stat:       2 * time.Microsecond,
	Open:       3 * time.Microsecond,
	Read:       2 * time.Microsecond,
	Write:      4 * time.Microsecond,
	Create:     6 * time.Microsecond,
	Mkdir:      5 * time.Microsecond,
	Symlink:    5 * time.Microsecond,
	Remove:     4 * time.Microsecond,
	PerKBRead:  200 * time.Nanosecond,
	PerKBWrite: 400 * time.Nanosecond,
}

// NFS models a remotely mounted home directory: every metadata operation
// pays a network round trip, which is what penalizes configure-heavy
// builds in Fig. 11.
var NFS = Latency{
	Name:       "nfs",
	Stat:       180 * time.Microsecond,
	Open:       220 * time.Microsecond,
	Read:       150 * time.Microsecond,
	Write:      250 * time.Microsecond,
	Create:     450 * time.Microsecond,
	Mkdir:      400 * time.Microsecond,
	Symlink:    420 * time.Microsecond,
	Remove:     300 * time.Microsecond,
	PerKBRead:  8 * time.Microsecond,
	PerKBWrite: 15 * time.Microsecond,
}

// Meter accumulates virtual time and operation counts for one client of
// the filesystem (e.g. one package build).
type Meter struct {
	mu   sync.Mutex
	cost time.Duration
	ops  map[string]int
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{ops: make(map[string]int)} }

func (m *Meter) add(op string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cost += d
	m.ops[op]++
	m.mu.Unlock()
}

// Add charges an externally computed cost (used by the build simulator for
// compile steps).
func (m *Meter) Add(op string, d time.Duration) { m.add(op, d) }

// Cost returns the accumulated virtual time.
func (m *Meter) Cost() time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cost
}

// Ops returns a copy of the per-operation counters.
func (m *Meter) Ops() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.ops))
	for k, v := range m.ops {
		out[k] = v
	}
	return out
}

// node is a file or symlink. A symlink keeps its target in data, so no
// node pays for a second string. Each directory chains its nodes through
// next.
type node struct {
	path string
	data string
	next *node
	link bool
}

// dirent is a directory: the heads of its file chain and its
// subdirectory chain, and the link to its next sibling. Entries are
// pushed at the head; List and Walk sort when they read.
type dirent struct {
	path  string
	files *node
	dirs  *dirent
	next  *dirent
}

// fsStore is the shared backing tree. The maps index every path for
// point lookups; the dirents make the prefix operations (List, Walk,
// TreeSize, RemoveAll) cost the subtree rather than the machine.
type fsStore struct {
	mu    sync.RWMutex
	files map[string]*node
	dirs  map[string]*dirent
}

// insert links a new node into its parent directory d.
func (s *fsStore) insert(d *dirent, n *node) {
	n.next, d.files = d.files, n
	s.files[n.path] = n
}

// unlink removes a node from its parent's chain and from the index.
func (s *fsStore) unlink(n *node) {
	for pp := &s.dirs[parentDir(n.path)].files; *pp != nil; pp = &(*pp).next {
		if *pp == n {
			*pp = n.next
			break
		}
	}
	delete(s.files, n.path)
}

// under calls fn for every file and symlink at or under p.
func (s *fsStore) under(p string, fn func(*node)) {
	if n := s.files[p]; n != nil {
		fn(n)
	} else if d := s.dirs[p]; d != nil {
		d.each(fn)
	}
}

func (d *dirent) each(fn func(*node)) {
	for n := d.files; n != nil; n = n.next {
		fn(n)
	}
	for c := d.dirs; c != nil; c = c.next {
		c.each(fn)
	}
}

// clear drops everything beneath d from the index and returns how many
// files and directories that was; d itself stays.
func (s *fsStore) clear(d *dirent) int {
	removed := 0
	for n := d.files; n != nil; n = n.next {
		delete(s.files, n.path)
		removed++
	}
	for c := d.dirs; c != nil; c = c.next {
		removed += s.clear(c) + 1
		delete(s.dirs, c.path)
	}
	d.files, d.dirs = nil, nil
	return removed
}

// failurePlan injects deterministic faults for failure-handling tests:
// after countdown more operations of the given kind, every further such
// operation fails.
type failurePlan struct {
	mu        sync.Mutex
	op        string
	countdown int
}

func (p *failurePlan) trip(op string) bool {
	if p == nil || p.op != op {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.countdown > 0 {
		p.countdown--
		return false
	}
	return true
}

// FS is a handle onto a simulated filesystem: a shared backing store, a
// latency profile, and a meter charged for this handle's operations.
// WithMeter and WithLatency derive handles sharing the same tree.
type FS struct {
	store *fsStore
	lat   Latency
	meter *Meter
	fail  *failurePlan
}

// FailAfter returns a handle on the same tree whose n-th-and-later
// operations of the given kind ("write", "read", "mkdir", "symlink",
// "remove", "rename") fail with a PathError — a fault-injection hook for
// testing failure handling. n=0 fails immediately.
func (fs *FS) FailAfter(op string, n int) *FS {
	return &FS{store: fs.store, lat: fs.lat, meter: fs.meter,
		fail: &failurePlan{op: op, countdown: n}}
}

func (fs *FS) maybeFail(op, path string) error {
	if fs.fail.trip(op) {
		return &PathError{Op: op, Path: path, Msg: "injected I/O error"}
	}
	return nil
}

// New creates an empty filesystem with the given latency profile and a
// fresh meter. The root directory "/" exists.
func New(lat Latency) *FS {
	s := &fsStore{files: make(map[string]*node), dirs: map[string]*dirent{"/": {path: "/"}}}
	return &FS{store: s, lat: lat, meter: NewMeter()}
}

// WithMeter returns a handle on the same tree charging a different meter.
// Fault-injection plans propagate to derived handles.
func (fs *FS) WithMeter(m *Meter) *FS {
	return &FS{store: fs.store, lat: fs.lat, meter: m, fail: fs.fail}
}

// WithLatency returns a handle on the same tree with a different profile.
// Fault-injection plans propagate to derived handles.
func (fs *FS) WithLatency(lat Latency) *FS {
	return &FS{store: fs.store, lat: lat, meter: fs.meter, fail: fs.fail}
}

// Meter returns the handle's meter.
func (fs *FS) Meter() *Meter { return fs.meter }

// Latency returns the handle's profile.
func (fs *FS) Latency() Latency { return fs.lat }

func clean(p string) string {
	if isClean(p) {
		return p
	}
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// isClean reports, without allocating, whether p is absolute and already
// in path.Clean form: no empty, "." or ".." element and no trailing slash
// (except the root itself).
func isClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if len(p) == 1 {
		return true
	}
	if p[len(p)-1] == '/' {
		return false
	}
	// Every element starts after a '/'; check each one.
	for i := 1; i <= len(p); {
		j := strings.IndexByte(p[i:], '/')
		if j < 0 {
			j = len(p) - i
		}
		switch p[i : i+j] {
		case "", ".", "..":
			return false
		}
		i += j + 1
	}
	return true
}

// parentDir is path.Dir for a path clean has already normalized.
func parentDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// PathError reports a failed filesystem operation.
type PathError struct {
	Op   string
	Path string
	Msg  string
}

func (e *PathError) Error() string {
	return fmt.Sprintf("simfs: %s %s: %s", e.Op, e.Path, e.Msg)
}

// MkdirAll creates a directory and any missing parents. It finds the
// deepest existing ancestor and creates downward, so an existing
// directory costs no allocation.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	if err := fs.maybeFail("mkdir", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	cur := p
	d := fs.store.dirs[cur]
	for d == nil {
		if _, isFile := fs.store.files[cur]; isFile {
			return &PathError{Op: "mkdir", Path: cur, Msg: "is a file"}
		}
		cur = parentDir(cur)
		d = fs.store.dirs[cur]
	}
	created := 0
	for len(cur) < len(p) {
		start := len(strings.TrimSuffix(cur, "/")) + 1
		end := len(p)
		if j := strings.IndexByte(p[start:], '/'); j >= 0 {
			end = start + j
		}
		c := &dirent{path: p[:end], next: d.dirs}
		d.dirs = c
		fs.store.dirs[c.path] = c
		d, cur = c, c.path
		created++
	}
	fs.meter.add("mkdir", fs.lat.Mkdir*time.Duration(created)+fs.lat.Stat)
	return nil
}

// WriteFile creates or replaces a file. The parent directory must exist.
func (fs *FS) WriteFile(p string, data []byte) error {
	p = clean(p)
	if err := fs.maybeFail("write", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	d := fs.store.dirs[parentDir(p)]
	if d == nil {
		return &PathError{Op: "create", Path: p, Msg: "parent directory does not exist"}
	}
	if fs.store.dirs[p] != nil {
		return &PathError{Op: "create", Path: p, Msg: "is a directory"}
	}
	cost := fs.lat.Write + fs.lat.PerKBWrite*time.Duration(len(data)/1024+1)
	if n := fs.store.files[p]; n != nil {
		n.data, n.link = string(data), false
	} else {
		fs.store.insert(d, &node{path: p, data: string(data)})
		cost += fs.lat.Create
	}
	fs.meter.add("write", cost)
	return nil
}

// resolve follows symlinks (bounded) under the store read lock.
func (fs *FS) resolve(p string, depth int) (*node, string, error) {
	if depth > 16 {
		return nil, p, &PathError{Op: "open", Path: p, Msg: "too many levels of symbolic links"}
	}
	n, ok := fs.store.files[p]
	if !ok {
		return nil, p, &PathError{Op: "open", Path: p, Msg: "no such file"}
	}
	if n.link {
		return fs.resolve(clean(n.data), depth+1)
	}
	return n, p, nil
}

// ReadFile returns a file's contents, following symlinks.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	if err := fs.maybeFail("read", p); err != nil {
		return nil, err
	}
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	n, _, err := fs.resolve(p, 0)
	if err != nil {
		fs.meter.add("read", fs.lat.Open)
		return nil, err
	}
	out := []byte(n.data)
	fs.meter.add("read", fs.lat.Open+fs.lat.Read+fs.lat.PerKBRead*time.Duration(len(out)/1024+1))
	return out, nil
}

// Stat reports whether a path exists and whether it is a directory.
func (fs *FS) Stat(p string) (exists, isDir bool) {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	fs.meter.add("stat", fs.lat.Stat)
	if fs.store.dirs[p] != nil {
		return true, true
	}
	_, ok := fs.store.files[p]
	return ok, false
}

// Symlink creates a symbolic link at newname pointing to oldname. The
// parent of newname must exist; newname must not. An empty oldname fails,
// as symlink(2) does with ENOENT.
func (fs *FS) Symlink(oldname, newname string) error {
	newname = clean(newname)
	if err := fs.maybeFail("symlink", newname); err != nil {
		return err
	}
	if oldname == "" {
		return &PathError{Op: "symlink", Path: newname, Msg: "empty target"}
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	d := fs.store.dirs[parentDir(newname)]
	if d == nil {
		return &PathError{Op: "symlink", Path: newname, Msg: "parent directory does not exist"}
	}
	if _, exists := fs.store.files[newname]; exists {
		return &PathError{Op: "symlink", Path: newname, Msg: "file exists"}
	}
	if fs.store.dirs[newname] != nil {
		return &PathError{Op: "symlink", Path: newname, Msg: "is a directory"}
	}
	fs.store.insert(d, &node{path: newname, data: oldname, link: true})
	fs.meter.add("symlink", fs.lat.Symlink)
	return nil
}

// Readlink returns a symlink's target.
func (fs *FS) Readlink(p string) (string, error) {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	fs.meter.add("stat", fs.lat.Stat)
	n, ok := fs.store.files[p]
	if !ok {
		return "", &PathError{Op: "readlink", Path: p, Msg: "no such file"}
	}
	if !n.link {
		return "", &PathError{Op: "readlink", Path: p, Msg: "not a symlink"}
	}
	return n.data, nil
}

// IsSymlink reports whether a path is a symbolic link.
func (fs *FS) IsSymlink(p string) bool {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	n, ok := fs.store.files[p]
	return ok && n.link
}

// Rename atomically moves a file or symlink to a new path, replacing any
// existing file there (POSIX rename semantics) — the primitive crash-safe
// database saves rely on: readers observe either the old or the new
// content, never a truncated file. Directories cannot be renamed.
func (fs *FS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	if err := fs.maybeFail("rename", newpath); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if fs.store.dirs[oldpath] != nil {
		return &PathError{Op: "rename", Path: oldpath, Msg: "is a directory"}
	}
	n, ok := fs.store.files[oldpath]
	if !ok {
		return &PathError{Op: "rename", Path: oldpath, Msg: "no such file"}
	}
	if fs.store.dirs[newpath] != nil {
		return &PathError{Op: "rename", Path: newpath, Msg: "is a directory"}
	}
	d := fs.store.dirs[parentDir(newpath)]
	if d == nil {
		return &PathError{Op: "rename", Path: newpath, Msg: "parent directory does not exist"}
	}
	if oldpath != newpath {
		fs.store.unlink(n)
		if t := fs.store.files[newpath]; t != nil {
			t.data, t.link = n.data, n.link
		} else {
			n.path = newpath
			fs.store.insert(d, n)
		}
	}
	fs.meter.add("rename", fs.lat.Create)
	return nil
}

// Remove deletes a file or symlink (not a directory).
func (fs *FS) Remove(p string) error {
	p = clean(p)
	if err := fs.maybeFail("remove", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if fs.store.dirs[p] != nil {
		return &PathError{Op: "remove", Path: p, Msg: "is a directory"}
	}
	n, ok := fs.store.files[p]
	if !ok {
		return &PathError{Op: "remove", Path: p, Msg: "no such file"}
	}
	fs.store.unlink(n)
	fs.meter.add("remove", fs.lat.Remove)
	return nil
}

// RemoveAll deletes a path and everything beneath it; RemoveAll("/")
// empties the tree and keeps the root. Removing a missing path is not an
// error.
func (fs *FS) RemoveAll(p string) error {
	p = clean(p)
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	removed := 0
	if n := fs.store.files[p]; n != nil {
		fs.store.unlink(n)
		removed = 1
	} else if d := fs.store.dirs[p]; d != nil {
		removed = fs.store.clear(d)
		if p != "/" {
			for pp := &fs.store.dirs[parentDir(p)].dirs; *pp != nil; pp = &(*pp).next {
				if *pp == d {
					*pp = d.next
					break
				}
			}
			delete(fs.store.dirs, p)
			removed++
		}
	}
	fs.meter.add("remove", fs.lat.Remove*time.Duration(removed+1))
	return nil
}

// List returns the immediate children of a directory, sorted.
func (fs *FS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	d := fs.store.dirs[dir]
	if d == nil {
		return nil, &PathError{Op: "list", Path: dir, Msg: "no such directory"}
	}
	fs.meter.add("stat", fs.lat.Open+fs.lat.Read)
	skip := len(strings.TrimSuffix(dir, "/")) + 1
	count := 0
	for n := d.files; n != nil; n = n.next {
		count++
	}
	for c := d.dirs; c != nil; c = c.next {
		count++
	}
	out := make([]string, 0, count)
	for n := d.files; n != nil; n = n.next {
		out = append(out, n.path[skip:])
	}
	for c := d.dirs; c != nil; c = c.next {
		out = append(out, c.path[skip:])
	}
	sort.Strings(out)
	return out, nil
}

// Walk visits every file and symlink under root (sorted by full path),
// calling fn with the path. fn may change the tree: a path removed
// before its turn is skipped.
func (fs *FS) Walk(root string, fn func(path string, isSymlink bool) error) error {
	root = clean(root)
	var paths []string
	fs.store.mu.RLock()
	fs.store.under(root, func(n *node) { paths = append(paths, n.path) })
	fs.store.mu.RUnlock()
	sort.Strings(paths)
	for _, p := range paths {
		fs.store.mu.RLock()
		n := fs.store.files[p]
		link := n != nil && n.link
		fs.store.mu.RUnlock()
		if n == nil {
			continue
		}
		if err := fn(p, link); err != nil {
			return err
		}
	}
	return nil
}

// FileCount returns the number of files and symlinks in the whole tree.
func (fs *FS) FileCount() int {
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	return len(fs.store.files)
}

// TreeSize returns the total payload bytes of the regular files at or
// under a path (symlinks count their target string). It is an accounting
// walk — no payload is copied and no latency is charged — so lifecycle
// planners can size prefixes and cache areas cheaply.
func (fs *FS) TreeSize(p string) int64 {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	var total int64
	fs.store.under(p, func(n *node) { total += int64(len(n.data)) })
	return total
}
