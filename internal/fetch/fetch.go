// Package fetch simulates the download side of the package manager:
// deterministic source archives served by an in-memory mirror, MD5 checksum
// verification against version directives, and scraping a simulated
// listing for new versions, the companion of SC'15 §3.2.3's URL
// extrapolation (pkg.ExtrapolateURL).
package fetch

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/version"
)

// Archive returns the deterministic simulated source tarball for a package
// release. Real Spack downloads bytes from the network; our substitute
// generates stable content so checksums are reproducible across runs.
func Archive(name string, v version.Version) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "tarball %s-%s\n", name, v)
	// Pad with deterministic filler so archives have nontrivial size.
	seed := md5.Sum([]byte(name + "@" + v.String()))
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "%x\n", md5.Sum(append(seed[:], byte(i))))
	}
	return []byte(b.String())
}

// Checksum returns the MD5 hex digest of a simulated archive — the value a
// package's version directive must carry for verification to pass.
func Checksum(name string, v version.Version) string {
	sum := md5.Sum(Archive(name, v))
	return hex.EncodeToString(sum[:])
}

// ChecksumOf hashes raw archive bytes.
func ChecksumOf(data []byte) string {
	sum := md5.Sum(data)
	return hex.EncodeToString(sum[:])
}

// Mirror is a simulated download server: it serves archives for the
// releases registered against it and can list them for scraping. Beyond
// source tarballs it also hosts opaque named blobs — the transport the
// binary build cache (internal/buildcache) pushes its relocatable
// archives through, mirroring how real Spack mirrors carry a
// `build_cache/` directory next to the source tree.
type Mirror struct {
	mu         sync.RWMutex
	releases   map[string][]version.Version // package -> available versions
	blobs      map[string][]byte            // name -> opaque payload
	blobSums   map[string]string            // name -> SHA-256 hex, recorded at PutBlob
	blobStamps map[string]blobStamp         // name -> last-access stamp
	blobSeq    uint64                       // logical clock behind the stamps
}

// blobStamp records when a blob was last touched: a logical sequence
// number (total order across reads and writes on this mirror) and the
// wall-clock time, so prunes can evict by recency or by age.
type blobStamp struct {
	seq uint64
	at  time.Time
}

// BlobUsage describes one blob's size and last access — the per-blob
// facts an LRU cache prune ranks evictions by. Seq orders accesses
// totally within this mirror's lifetime; Last is the wall-clock side for
// age bounds. Blobs never touched since the mirror came up carry their
// PutBlob stamp.
type BlobUsage struct {
	Name string
	Size int64
	Seq  uint64
	Last time.Time
}

// NewMirror creates an empty mirror.
func NewMirror() *Mirror {
	return &Mirror{
		releases:   make(map[string][]version.Version),
		blobs:      make(map[string][]byte),
		blobSums:   make(map[string]string),
		blobStamps: make(map[string]blobStamp),
	}
}

// touchBlob advances the logical clock and stamps a blob. Callers hold
// the write lock.
func (m *Mirror) touchBlob(name string) {
	m.blobSeq++
	m.blobStamps[name] = blobStamp{seq: m.blobSeq, at: time.Now()}
}

// Publish registers a release so the mirror will serve it.
func (m *Mirror) Publish(name string, v version.Version) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, existing := range m.releases[name] {
		if existing.Equal(v) {
			return
		}
	}
	m.releases[name] = append(m.releases[name], v)
}

// Available lists the published versions of a package, sorted ascending.
func (m *Mirror) Available(name string) []version.Version {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]version.Version, len(m.releases[name]))
	copy(out, m.releases[name])
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// FetchError reports a failed or corrupted download.
type FetchError struct {
	Package string
	Version string
	Reason  string
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("fetch: %s@%s: %s", e.Package, e.Version, e.Reason)
}

// Fetch downloads the archive for a release and, when expectMD5 is
// nonempty, verifies the checksum (the safety check behind the paper's
// version directives). Unpublished releases fail.
func (m *Mirror) Fetch(name string, v version.Version, expectMD5 string) ([]byte, error) {
	m.mu.RLock()
	published := false
	for _, existing := range m.releases[name] {
		if existing.Equal(v) {
			published = true
			break
		}
	}
	m.mu.RUnlock()
	if !published {
		return nil, &FetchError{Package: name, Version: v.String(), Reason: "no such release on mirror"}
	}
	data := Archive(name, v)
	if expectMD5 != "" {
		if got := ChecksumOf(data); got != expectMD5 {
			return nil, &FetchError{
				Package: name, Version: v.String(),
				Reason: fmt.Sprintf("checksum mismatch: got %s, want %s", got, expectMD5),
			}
		}
	}
	return data, nil
}

// PutBlob stores (or replaces) an opaque named payload on the mirror.
// The mirror copies the bytes, so callers may reuse their buffer. The
// payload's SHA-256 is recorded at write time, so integrity consumers
// (ETags, existence probes) never re-hash on the read path.
func (m *Mirror) PutBlob(name string, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	sum := sha256.Sum256(buf)
	m.mu.Lock()
	m.blobs[name] = buf
	m.blobSums[name] = hex.EncodeToString(sum[:])
	m.touchBlob(name)
	m.mu.Unlock()
}

// BlobSum returns the SHA-256 hex digest recorded when a named blob was
// stored, reporting whether the blob exists. It never reads (or hashes)
// the payload.
func (m *Mirror) BlobSum(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sum, ok := m.blobSums[name]
	return sum, ok
}

// BlobStat reports a blob's existence, size, and recorded SHA-256
// without copying the payload — the mirror-side answer to a HEAD
// request.
func (m *Mirror) BlobStat(name string) (size int64, sum string, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, exists := m.blobs[name]
	if !exists {
		return 0, "", false
	}
	return int64(len(data)), m.blobSums[name], true
}

// Blob returns a copy of a named payload, reporting whether it exists.
func (m *Mirror) Blob(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.blobs[name]
	if !ok {
		return nil, false
	}
	m.touchBlob(name)
	out := make([]byte, len(data))
	copy(out, data)
	return out, true
}

// DeleteBlob removes a named payload; missing names are a no-op.
func (m *Mirror) DeleteBlob(name string) {
	m.mu.Lock()
	delete(m.blobs, name)
	delete(m.blobSums, name)
	delete(m.blobStamps, name)
	m.mu.Unlock()
}

// BlobUsages returns size and last-access facts for every stored blob,
// sorted by name.
func (m *Mirror) BlobUsages() []BlobUsage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]BlobUsage, 0, len(m.blobs))
	for name, data := range m.blobs {
		st := m.blobStamps[name]
		out = append(out, BlobUsage{Name: name, Size: int64(len(data)), Seq: st.seq, Last: st.at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Blobs lists the stored blob names, sorted.
func (m *Mirror) Blobs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.blobs))
	for name := range m.blobs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Scrape probes the mirror for versions of a package newer than the ones a
// package file declares — the paper's webpage-scraping feature ("Spack uses
// the same model to scrape webpages and find new versions"). It returns
// published versions not in known, sorted ascending.
func (m *Mirror) Scrape(name string, known []version.Version) []version.Version {
	isKnown := func(v version.Version) bool {
		for _, k := range known {
			if k.Equal(v) {
				return true
			}
		}
		return false
	}
	var out []version.Version
	for _, v := range m.Available(name) {
		if !isKnown(v) {
			out = append(out, v)
		}
	}
	return out
}
