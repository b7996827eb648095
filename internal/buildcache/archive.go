package buildcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// archiveFormatVersion is bumped whenever the serialized archive layout
// changes incompatibly; Pull refuses archives from other versions.
const archiveFormatVersion = 3

// archiveMagic opens every format-3 archive. Archives of earlier formats
// (format 1 is one JSON document, format 2 opens with "... archive 2")
// fail the magic check.
const archiveMagic = "spack-go buildcache archive 3\n"

// archiveFile is one packed file or symlink of an install prefix. Paths
// are relative to the prefix. The manifest records the size of Data,
// which travels raw after the manifest.
type archiveFile struct {
	Path    string
	Symlink string
	Data    []byte
}

// archiveReloc is the relocation table entry for one packed file: how
// many occurrences of each source path (store root, own prefix, each
// dependency prefix) its contents carry. Pull re-counts while rewriting
// and treats any disagreement as a relocation failure — the archive was
// packed against a different tree than it claims.
type archiveReloc struct {
	Path        string
	Occurrences map[string]int
}

// Archive is the deterministic relocatable form of one installed prefix:
// a manifest of files, the full concrete spec as provenance, the recorded
// compiler command lines of the original build, and a relocation table of
// every path occurrence that must be rewritten on Pull.
type Archive struct {
	Format   int
	Package  string
	Version  string
	FullHash string
	// Spec is the flat rendering for human readers; SpecJSON preserves
	// the exact DAG edge structure so the hash survives the round trip.
	Spec     string
	SpecJSON []byte
	// StoreRoot and Prefix are the paths of the *source* store the
	// archive was packed from; DepPrefixes maps each dependency's package
	// name to its source prefix. Together they define the relocation
	// sources.
	StoreRoot   string
	Prefix      string
	DepPrefixes map[string]string
	// Commands are the compiler command lines recorded in the original
	// build log — provenance for how the binaries were produced, and the
	// source of the expected rpath set.
	Commands    []string
	Files       []archiveFile
	Relocations []archiveReloc
}

// encode renders the canonical archive bytes the checksum covers
// (format 3): the magic line, the manifest length as a uvarint, the
// binary manifest, then every file body in manifest order. The manifest
// holds the Archive fields in declaration order: every string and
// SpecJSON as a uvarint length and its bytes, every number and count as
// a uvarint, each file as path, symlink and body size, and DepPrefixes
// and each file's Occurrences as key/value lists in increasing key
// order.
func (a *Archive) encode() []byte {
	m := binary.AppendUvarint(nil, uint64(a.Format))
	for _, s := range []string{a.Package, a.Version, a.FullHash, a.Spec} {
		m = appendString(m, s)
	}
	m = appendString(m, a.SpecJSON)
	m = appendString(m, a.StoreRoot)
	m = appendString(m, a.Prefix)
	m = binary.AppendUvarint(m, uint64(len(a.DepPrefixes)))
	for _, k := range sortedKeys(a.DepPrefixes) {
		m = appendString(appendString(m, k), a.DepPrefixes[k])
	}
	m = binary.AppendUvarint(m, uint64(len(a.Commands)))
	for _, c := range a.Commands {
		m = appendString(m, c)
	}
	m = binary.AppendUvarint(m, uint64(len(a.Files)))
	body := 0
	for _, f := range a.Files {
		m = appendString(appendString(m, f.Path), f.Symlink)
		m = binary.AppendUvarint(m, uint64(len(f.Data)))
		body += len(f.Data)
	}
	m = binary.AppendUvarint(m, uint64(len(a.Relocations)))
	for _, r := range a.Relocations {
		m = appendString(m, r.Path)
		m = binary.AppendUvarint(m, uint64(len(r.Occurrences)))
		for _, k := range sortedKeys(r.Occurrences) {
			m = binary.AppendUvarint(appendString(m, k), uint64(r.Occurrences[k]))
		}
	}
	out := make([]byte, 0, len(archiveMagic)+binary.MaxVarintLen64+len(m)+body)
	out = append(out, archiveMagic...)
	out = binary.AppendUvarint(out, uint64(len(m)))
	out = append(out, m...)
	for _, f := range a.Files {
		out = append(out, f.Data...)
	}
	return out
}

// appendString appends a manifest string: its length, then its bytes.
func appendString[S string | []byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// sortedKeys returns a map's keys in increasing order, the order the
// manifest lists them in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decodeArchive parses archive bytes. It accepts only what encode
// produces, so every archive has exactly one byte form, the one its
// checksum covers: the format-3 magic line, minimal varints, lengths and
// counts that fit the manifest, map keys in strictly increasing order, a
// SpecJSON that is valid JSON, no bytes after the manifest's last field,
// file sizes that fit the payload, and no bytes after the last body.
// Strings are substrings of one copy of the manifest; SpecJSON and the
// file bodies are sub-slices of data.
func decodeArchive(data []byte) (*Archive, error) {
	rest, ok := bytes.CutPrefix(data, []byte(archiveMagic))
	if !ok {
		return nil, fmt.Errorf("not a format-%d archive (bad magic line)", archiveFormatVersion)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || !minimalUvarint(rest[:w]) || n > uint64(len(rest)-w) {
		return nil, fmt.Errorf("manifest length out of range")
	}
	manifest, payload := rest[w:w+int(n)], rest[w+int(n):]
	r := &manifestReader{b: manifest, s: string(manifest)}
	if f := r.uvarint(); r.err == nil && f != archiveFormatVersion {
		return nil, fmt.Errorf("archive format %d not supported", f)
	}
	ar := &Archive{Format: archiveFormatVersion}
	ar.Package, ar.Version, ar.FullHash, ar.Spec = r.str(), r.str(), r.str(), r.str()
	ar.SpecJSON = r.bytes()
	ar.StoreRoot, ar.Prefix = r.str(), r.str()
	if c := r.count(); c > 0 {
		ar.DepPrefixes = make(map[string]string, c)
		for i, prev := 0, ""; i < c; i++ {
			k := r.key(i, prev)
			ar.DepPrefixes[k], prev = r.str(), k
		}
	}
	if c := r.count(); c > 0 {
		ar.Commands = make([]string, c)
		for i := range ar.Commands {
			ar.Commands[i] = r.str()
		}
	}
	if c := r.count(); c > 0 {
		ar.Files = make([]archiveFile, c)
		for i := range ar.Files {
			f := &ar.Files[i]
			f.Path, f.Symlink = r.str(), r.str()
			size := r.uvarint()
			if r.err != nil {
				break
			}
			if size > uint64(len(payload)) {
				return nil, fmt.Errorf("file %q: size %d past the payload", f.Path, size)
			}
			f.Data, payload = payload[:size:size], payload[size:]
		}
	}
	if c := r.count(); c > 0 {
		ar.Relocations = make([]archiveReloc, c)
		for i := range ar.Relocations {
			rel := &ar.Relocations[i]
			rel.Path = r.str()
			nk := r.count()
			rel.Occurrences = make(map[string]int, nk)
			for j, prev := 0, ""; j < nk; j++ {
				k := r.key(j, prev)
				v := r.uvarint()
				if v > math.MaxInt {
					r.fail("occurrence count %d out of range", v)
				}
				rel.Occurrences[k], prev = int(v), k
			}
		}
	}
	if r.err == nil && r.off != len(manifest) {
		r.fail("%d trailing bytes", len(manifest)-r.off)
	}
	if r.err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", r.err)
	}
	if !json.Valid(ar.SpecJSON) {
		return nil, fmt.Errorf("spec_json is not valid JSON")
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last file", len(payload))
	}
	return ar, nil
}

// manifestReader walks a format-3 manifest. b and s hold the same bytes:
// varints and SpecJSON come from b, strings are substrings of s, so a
// decode converts the manifest to a string once instead of per field.
// The first error sticks and every later read returns a zero value.
type manifestReader struct {
	b   []byte
	s   string
	off int
	err error
}

func (r *manifestReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// uvarint reads one minimally encoded uvarint.
func (r *manifestReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	if !minimalUvarint(r.b[r.off : r.off+n]) {
		r.fail("non-minimal varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a length or an item count. Every byte of a string and
// every item of a list takes at least one manifest byte, so a count past
// the bytes left is damage — and is refused before anything is
// allocated for it.
func (r *manifestReader) count() int {
	c := r.uvarint()
	if c > uint64(len(r.b)-r.off) {
		r.fail("length or count %d runs past the manifest", c)
		return 0
	}
	return int(c)
}

// str reads a length-prefixed string as a substring of the manifest.
func (r *manifestReader) str() string {
	n := r.count()
	r.off += n
	return r.s[r.off-n : r.off]
}

// bytes reads a length-prefixed byte string as a sub-slice of the
// manifest.
func (r *manifestReader) bytes() []byte {
	n := r.count()
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// key reads the i-th key of a key/value list; keys must increase
// strictly, so a list has one order and no duplicates.
func (r *manifestReader) key(i int, prev string) string {
	k := r.str()
	if i > 0 && k <= prev && r.err == nil {
		r.fail("key %q after %q: keys out of order or duplicated", k, prev)
	}
	return k
}

// minimalUvarint reports whether b, one complete uvarint, is the
// shortest encoding of its value: only a one-byte encoding may end in a
// zero byte.
func minimalUvarint(b []byte) bool {
	return len(b) == 1 || b[len(b)-1] != 0
}

// checksumOf is the cache's integrity hash over canonical archive bytes.
func checksumOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ChecksumOf exposes the cache's integrity hash (hex SHA-256 over the
// canonical archive bytes) for tools that verify or re-sign archives.
func ChecksumOf(data []byte) string { return checksumOf(data) }

// archiveName and checksumName are the backend object names for a full
// spec hash. The checksum rides separately so verification does not
// require parsing a possibly-corrupt archive.
func archiveName(hash string) string  { return hash + ".spack.json" }
func checksumName(hash string) string { return hash + ".sha256" }

// sigName is the detached signature object for a full spec hash (a
// Signature document signing the recorded checksum and the metadata
// digest); absent for archives pushed without a signing identity.
func sigName(hash string) string { return hash + ".sig" }

// metaName is the spec-metadata document for a full spec hash: the
// provenance JSON (spec, origin, splice lineage, archive checksum) the
// signature covers alongside the archive bytes.
func metaName(hash string) string { return hash + ".meta" }

// hashOfName inverts the four object names back to the full spec hash,
// reporting which suffix the name carried. Lifecycle sweeps use it to
// group an archive with its checksum, metadata and signature as one unit.
func hashOfName(name string) (hash string, ok bool) {
	for _, suffix := range []string{".spack.json", ".sha256", ".sig", ".meta"} {
		if h, found := strings.CutSuffix(name, suffix); found {
			return h, true
		}
	}
	return "", false
}

// parseBuildCommands extracts the recorded command lines from a
// provenance build log (the "==> commands" section of .spack/build.out).
func parseBuildCommands(log []byte) []string {
	var out []string
	in := false
	for _, line := range strings.Split(string(log), "\n") {
		if strings.HasPrefix(line, "==>") {
			in = strings.TrimSpace(line) == "==> commands"
			continue
		}
		if in && line != "" {
			out = append(out, line)
		}
	}
	return out
}
