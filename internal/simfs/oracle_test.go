package simfs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// flatFS is the flat-map simfs the directory tree replaced, kept as the
// reference the differential tests compare against: one map of files and
// one set of directories, every prefix operation a scan of the whole
// machine. It shares clean, parentDir, PathError, Meter and failurePlan
// with the real implementation. One change from the original: RemoveAll
// of "/" empties the tree and keeps the root instead of deleting only the
// root's own entry.
type flatFS struct {
	store *flatStore
	lat   Latency
	meter *Meter
	fail  *failurePlan
}

type flatNode struct {
	data    []byte
	symlink string
}

type flatStore struct {
	mu    sync.RWMutex
	files map[string]*flatNode
	dirs  map[string]bool
}

func newFlat(lat Latency) *flatFS {
	s := &flatStore{files: make(map[string]*flatNode), dirs: map[string]bool{"/": true}}
	return &flatFS{store: s, lat: lat, meter: NewMeter()}
}

func (fs *flatFS) FailAfter(op string, n int) *flatFS {
	return &flatFS{store: fs.store, lat: fs.lat, meter: fs.meter,
		fail: &failurePlan{op: op, countdown: n}}
}

func (fs *flatFS) maybeFail(op, path string) error {
	if fs.fail.trip(op) {
		return &PathError{Op: op, Path: path, Msg: "injected I/O error"}
	}
	return nil
}

func (fs *flatFS) MkdirAll(p string) error {
	p = clean(p)
	if err := fs.maybeFail("mkdir", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	var parts []string
	for cur := p; cur != "/"; cur = parentDir(cur) {
		parts = append(parts, cur)
	}
	created := 0
	for i := len(parts) - 1; i >= 0; i-- {
		dir := parts[i]
		if fs.store.dirs[dir] {
			continue
		}
		if _, isFile := fs.store.files[dir]; isFile {
			return &PathError{Op: "mkdir", Path: dir, Msg: "is a file"}
		}
		fs.store.dirs[dir] = true
		created++
	}
	fs.meter.add("mkdir", fs.lat.Mkdir*time.Duration(created)+fs.lat.Stat)
	return nil
}

func (fs *flatFS) WriteFile(p string, data []byte) error {
	p = clean(p)
	if err := fs.maybeFail("write", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if !fs.store.dirs[parentDir(p)] {
		return &PathError{Op: "create", Path: p, Msg: "parent directory does not exist"}
	}
	if fs.store.dirs[p] {
		return &PathError{Op: "create", Path: p, Msg: "is a directory"}
	}
	_, existed := fs.store.files[p]
	buf := make([]byte, len(data))
	copy(buf, data)
	fs.store.files[p] = &flatNode{data: buf}
	cost := fs.lat.Write + fs.lat.PerKBWrite*time.Duration(len(data)/1024+1)
	if !existed {
		cost += fs.lat.Create
	}
	fs.meter.add("write", cost)
	return nil
}

func (fs *flatFS) resolve(p string, depth int) (*flatNode, string, error) {
	if depth > 16 {
		return nil, p, &PathError{Op: "open", Path: p, Msg: "too many levels of symbolic links"}
	}
	n, ok := fs.store.files[p]
	if !ok {
		return nil, p, &PathError{Op: "open", Path: p, Msg: "no such file"}
	}
	if n.symlink != "" {
		return fs.resolve(clean(n.symlink), depth+1)
	}
	return n, p, nil
}

func (fs *flatFS) ReadFile(p string) ([]byte, error) {
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
	out := make([]byte, len(n.data))
	copy(out, n.data)
	fs.meter.add("read", fs.lat.Open+fs.lat.Read+fs.lat.PerKBRead*time.Duration(len(out)/1024+1))
	return out, nil
}

func (fs *flatFS) Stat(p string) (exists, isDir bool) {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	fs.meter.add("stat", fs.lat.Stat)
	if fs.store.dirs[p] {
		return true, true
	}
	_, ok := fs.store.files[p]
	return ok, false
}

func (fs *flatFS) Symlink(oldname, newname string) error {
	newname = clean(newname)
	if err := fs.maybeFail("symlink", newname); err != nil {
		return err
	}
	if oldname == "" {
		return &PathError{Op: "symlink", Path: newname, Msg: "empty target"}
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if !fs.store.dirs[parentDir(newname)] {
		return &PathError{Op: "symlink", Path: newname, Msg: "parent directory does not exist"}
	}
	if _, exists := fs.store.files[newname]; exists {
		return &PathError{Op: "symlink", Path: newname, Msg: "file exists"}
	}
	if fs.store.dirs[newname] {
		return &PathError{Op: "symlink", Path: newname, Msg: "is a directory"}
	}
	fs.store.files[newname] = &flatNode{symlink: oldname}
	fs.meter.add("symlink", fs.lat.Symlink)
	return nil
}

func (fs *flatFS) Readlink(p string) (string, error) {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	fs.meter.add("stat", fs.lat.Stat)
	n, ok := fs.store.files[p]
	if !ok {
		return "", &PathError{Op: "readlink", Path: p, Msg: "no such file"}
	}
	if n.symlink == "" {
		return "", &PathError{Op: "readlink", Path: p, Msg: "not a symlink"}
	}
	return n.symlink, nil
}

func (fs *flatFS) IsSymlink(p string) bool {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	n, ok := fs.store.files[p]
	return ok && n.symlink != ""
}

func (fs *flatFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	if err := fs.maybeFail("rename", newpath); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if fs.store.dirs[oldpath] {
		return &PathError{Op: "rename", Path: oldpath, Msg: "is a directory"}
	}
	n, ok := fs.store.files[oldpath]
	if !ok {
		return &PathError{Op: "rename", Path: oldpath, Msg: "no such file"}
	}
	if fs.store.dirs[newpath] {
		return &PathError{Op: "rename", Path: newpath, Msg: "is a directory"}
	}
	if !fs.store.dirs[parentDir(newpath)] {
		return &PathError{Op: "rename", Path: newpath, Msg: "parent directory does not exist"}
	}
	if oldpath != newpath {
		fs.store.files[newpath] = n
		delete(fs.store.files, oldpath)
	}
	fs.meter.add("rename", fs.lat.Create)
	return nil
}

func (fs *flatFS) Remove(p string) error {
	p = clean(p)
	if err := fs.maybeFail("remove", p); err != nil {
		return err
	}
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	if fs.store.dirs[p] {
		return &PathError{Op: "remove", Path: p, Msg: "is a directory"}
	}
	if _, ok := fs.store.files[p]; !ok {
		return &PathError{Op: "remove", Path: p, Msg: "no such file"}
	}
	delete(fs.store.files, p)
	fs.meter.add("remove", fs.lat.Remove)
	return nil
}

func (fs *flatFS) RemoveAll(p string) error {
	p = clean(p)
	fs.store.mu.Lock()
	defer fs.store.mu.Unlock()
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	removed := 0
	for f := range fs.store.files {
		if f == p || strings.HasPrefix(f, prefix) {
			delete(fs.store.files, f)
			removed++
		}
	}
	for d := range fs.store.dirs {
		if d != "/" && (d == p || strings.HasPrefix(d, prefix)) {
			delete(fs.store.dirs, d)
			removed++
		}
	}
	fs.meter.add("remove", fs.lat.Remove*time.Duration(removed+1))
	return nil
}

func (fs *flatFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	if !fs.store.dirs[dir] {
		return nil, &PathError{Op: "list", Path: dir, Msg: "no such directory"}
	}
	fs.meter.add("stat", fs.lat.Open+fs.lat.Read)
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	seen := make(map[string]bool)
	add := func(p string) {
		if !strings.HasPrefix(p, prefix) || p == dir {
			return
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			seen[rest] = true
		}
	}
	for f := range fs.store.files {
		add(f)
	}
	for d := range fs.store.dirs {
		add(d)
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func (fs *flatFS) Walk(root string, fn func(path string, isSymlink bool) error) error {
	root = clean(root)
	fs.store.mu.RLock()
	var paths []string
	prefix := root + "/"
	if root == "/" {
		prefix = "/"
	}
	for f := range fs.store.files {
		if f == root || strings.HasPrefix(f, prefix) {
			paths = append(paths, f)
		}
	}
	fs.store.mu.RUnlock()
	sort.Strings(paths)
	for _, p := range paths {
		fs.store.mu.RLock()
		n := fs.store.files[p]
		fs.store.mu.RUnlock()
		if n == nil {
			continue
		}
		if err := fn(p, n.symlink != ""); err != nil {
			return err
		}
	}
	return nil
}

func (fs *flatFS) FileCount() int {
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	return len(fs.store.files)
}

func (fs *flatFS) TreeSize(p string) int64 {
	p = clean(p)
	fs.store.mu.RLock()
	defer fs.store.mu.RUnlock()
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	var total int64
	for f, n := range fs.store.files {
		if f != p && !strings.HasPrefix(f, prefix) {
			continue
		}
		if n.symlink != "" {
			total += int64(len(n.symlink))
		} else {
			total += int64(len(n.data))
		}
	}
	return total
}
