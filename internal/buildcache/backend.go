package buildcache

import (
	"strings"
	"sync"
	"time"

	"repro/internal/fetch"
	"repro/internal/simfs"
	"repro/internal/txn"
)

// Backend is the byte transport a binary cache stores archives in. Put
// must be atomic with respect to Get: a reader never observes a torn
// payload. Names are flat (no directories).
type Backend interface {
	// Put stores (or replaces) a named payload.
	Put(name string, data []byte) error
	// Get returns a payload, reporting whether the name exists.
	Get(name string) ([]byte, bool, error)
	// Stat reports whether a name exists without transferring the
	// payload — the builder's cheap cache probe, and an HTTP HEAD for
	// remote backends.
	Stat(name string) (ok bool, err error)
	// List returns the stored names, sorted.
	List() ([]string, error)
	// Delete removes a named payload; missing names are a no-op.
	Delete(name string) error
}

// Usage describes one stored payload's size and last access, the facts
// the LRU mirror prune ranks evictions by. Seq totally orders accesses
// within the backend's lifetime (0 = never accessed since it came up);
// Last is the wall-clock side for age bounds.
type Usage struct {
	Name string
	Size int64
	Seq  uint64
	Last time.Time
}

// UsageReporter is an optional Backend refinement: backends that record
// access stamps at blob read/write time can enumerate per-payload usage,
// which `buildcache prune` and the daemon's self-bounding sweep need.
type UsageReporter interface {
	Usage() ([]Usage, error)
}

// TxnDeleter is an optional Backend refinement: backends whose storage
// lives on the store's simulated filesystem can stage deletions into a
// journaled transaction, so a cache sweep inherits the same crash
// pre-or-post guarantee as the store mutations it rides with.
type TxnDeleter interface {
	StageDelete(t *txn.Txn, name string)
}

// Summer is an optional Backend refinement: backends that record payload
// digests at write time can answer a checksum query without transferring
// the payload. Cache.Verify uses it to validate an archive with a stat
// instead of a full download.
type Summer interface {
	// Sum returns the hex SHA-256 of a stored payload, reporting whether
	// the name exists.
	Sum(name string) (sum string, ok bool, err error)
}

// MirrorBackend stores cache archives as blobs on a fetch.Mirror — the
// shared-mirror deployment, where one site pushes and many pull.
type MirrorBackend struct {
	Mirror *fetch.Mirror
}

// NewMirrorBackend wraps a mirror as a cache transport.
func NewMirrorBackend(m *fetch.Mirror) *MirrorBackend { return &MirrorBackend{Mirror: m} }

func (b *MirrorBackend) Put(name string, data []byte) error {
	b.Mirror.PutBlob(blobPrefix+name, data)
	return nil
}

func (b *MirrorBackend) Get(name string) ([]byte, bool, error) {
	data, ok := b.Mirror.Blob(blobPrefix + name)
	return data, ok, nil
}

func (b *MirrorBackend) Stat(name string) (bool, error) {
	_, ok := b.Mirror.BlobSum(blobPrefix + name)
	return ok, nil
}

// Sum answers from the digest the mirror recorded at PutBlob time — no
// payload moves and no re-hash.
func (b *MirrorBackend) Sum(name string) (string, bool, error) {
	sum, ok := b.Mirror.BlobSum(blobPrefix + name)
	return sum, ok, nil
}

func (b *MirrorBackend) List() ([]string, error) {
	var out []string
	for _, name := range b.Mirror.Blobs() {
		if rest, ok := strings.CutPrefix(name, blobPrefix); ok {
			out = append(out, rest)
		}
	}
	return out, nil
}

func (b *MirrorBackend) Delete(name string) error {
	b.Mirror.DeleteBlob(blobPrefix + name)
	return nil
}

// Usage reads the access stamps the mirror records at blob read and
// write time.
func (b *MirrorBackend) Usage() ([]Usage, error) {
	var out []Usage
	for _, u := range b.Mirror.BlobUsages() {
		if rest, ok := strings.CutPrefix(u.Name, blobPrefix); ok {
			out = append(out, Usage{Name: rest, Size: u.Size, Seq: u.Seq, Last: u.Last})
		}
	}
	return out, nil
}

// blobPrefix namespaces cache archives among the mirror's blobs, the way
// real Spack mirrors keep binaries under build_cache/.
const blobPrefix = "build_cache/"

// FSBackend stores cache archives as files in a directory of a simulated
// filesystem — the file:// mirror deployment. Writes are temp + rename so
// a crash mid-Put never leaves a truncated archive at the final name.
type FSBackend struct {
	FS   *simfs.FS
	Root string

	// stampMu guards the in-memory access stamps behind Usage. Stamps are
	// process-local (the filesystem has no atime): a file present before
	// the backend came up reports Seq 0 and a zero Last until touched,
	// which an LRU sweep correctly reads as coldest.
	stampMu sync.Mutex
	stamps  map[string]Usage
	seq     uint64
}

// NewFSBackend creates the directory (and parents) eagerly so later Puts
// only pay the file writes.
func NewFSBackend(fs *simfs.FS, root string) (*FSBackend, error) {
	root = strings.TrimSuffix(root, "/")
	if err := fs.MkdirAll(root); err != nil {
		return nil, err
	}
	return &FSBackend{FS: fs, Root: root, stamps: make(map[string]Usage)}, nil
}

// touch stamps one name's last access.
func (b *FSBackend) touch(name string) {
	b.stampMu.Lock()
	b.seq++
	b.stamps[name] = Usage{Name: name, Seq: b.seq, Last: time.Now()}
	b.stampMu.Unlock()
}

func (b *FSBackend) Put(name string, data []byte) error {
	if err := txn.WriteFileAtomic(b.FS, b.Root+"/"+name, data); err != nil {
		return err
	}
	b.touch(name)
	return nil
}

func (b *FSBackend) Get(name string) ([]byte, bool, error) {
	data, err := b.FS.ReadFile(b.Root + "/" + name)
	if err != nil {
		if ex, _ := b.FS.Stat(b.Root + "/" + name); !ex {
			return nil, false, nil
		}
		return nil, false, err
	}
	b.touch(name)
	return data, true, nil
}

func (b *FSBackend) Stat(name string) (bool, error) {
	exists, isDir := b.FS.Stat(b.Root + "/" + name)
	return exists && !isDir, nil
}

func (b *FSBackend) List() ([]string, error) {
	names, err := b.FS.List(b.Root)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if !strings.Contains(n, ".tmp") {
			out = append(out, n)
		}
	}
	return out, nil
}

func (b *FSBackend) Delete(name string) error {
	p := b.Root + "/" + name
	if ex, isDir := b.FS.Stat(p); !ex || isDir {
		return nil
	}
	if err := b.FS.Remove(p); err != nil {
		return err
	}
	b.stampMu.Lock()
	delete(b.stamps, name)
	b.stampMu.Unlock()
	return nil
}

// StageDelete stages a payload's removal into a journaled transaction —
// the file lives on the store filesystem, so the deletion rides the same
// crash pre-or-post guarantee as the store mutations beside it.
func (b *FSBackend) StageDelete(t *txn.Txn, name string) {
	t.StageRemoveFile(b.Root + "/" + name)
	t.OnCommit(func() {
		b.stampMu.Lock()
		delete(b.stamps, name)
		b.stampMu.Unlock()
	})
}

// Usage enumerates the stored payloads with their process-local access
// stamps; sizes come from the filesystem's accounting walk.
func (b *FSBackend) Usage() ([]Usage, error) {
	names, err := b.List()
	if err != nil {
		return nil, err
	}
	b.stampMu.Lock()
	defer b.stampMu.Unlock()
	out := make([]Usage, 0, len(names))
	for _, n := range names {
		u := b.stamps[n]
		u.Name = n
		u.Size = b.FS.TreeSize(b.Root + "/" + n)
		out = append(out, u)
	}
	return out, nil
}
