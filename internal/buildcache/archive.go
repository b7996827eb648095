package buildcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// archiveFormatVersion is bumped whenever the serialized archive layout
// changes incompatibly; Pull refuses archives from other versions.
const archiveFormatVersion = 2

// archiveMagic opens every format-2 archive. A format-1 archive (one JSON
// document) starts with '{' and so fails the magic check.
const archiveMagic = "spack-go buildcache archive 2\n"

// archiveFile is one packed file or symlink of an install prefix. Paths
// are relative to the prefix. The manifest records Size; Data travels raw
// after the manifest.
type archiveFile struct {
	Path    string `json:"path"`
	Symlink string `json:"symlink,omitempty"`
	Size    int    `json:"size,omitempty"`
	Data    []byte `json:"-"`
}

// archiveReloc is the relocation table entry for one packed file: how
// many occurrences of each source path (store root, own prefix, each
// dependency prefix) its contents carry. Pull re-counts while rewriting
// and treats any disagreement as a relocation failure — the archive was
// packed against a different tree than it claims.
type archiveReloc struct {
	Path        string         `json:"path"`
	Occurrences map[string]int `json:"occurrences"`
}

// Archive is the deterministic relocatable form of one installed prefix:
// a manifest of files, the full concrete spec as provenance, the recorded
// compiler command lines of the original build, and a relocation table of
// every path occurrence that must be rewritten on Pull.
type Archive struct {
	Format   int    `json:"format"`
	Package  string `json:"package"`
	Version  string `json:"version"`
	FullHash string `json:"full_hash"`
	// Spec is the flat rendering for human readers; SpecJSON preserves
	// the exact DAG edge structure so the hash survives the round trip.
	Spec     string          `json:"spec"`
	SpecJSON json.RawMessage `json:"spec_json"`
	// StoreRoot and Prefix are the paths of the *source* store the
	// archive was packed from; DepPrefixes maps each dependency's package
	// name to its source prefix. Together they define the relocation
	// sources.
	StoreRoot   string            `json:"store_root"`
	Prefix      string            `json:"prefix"`
	DepPrefixes map[string]string `json:"dep_prefixes,omitempty"`
	// Commands are the compiler command lines recorded in the original
	// build log — provenance for how the binaries were produced, and the
	// source of the expected rpath set.
	Commands    []string       `json:"commands,omitempty"`
	Files       []archiveFile  `json:"files"`
	Relocations []archiveReloc `json:"relocations,omitempty"`
}

// encode renders the canonical archive bytes the checksum covers
// (format 2): the magic line, the manifest length as a uvarint, the
// manifest (the Archive as compact JSON, file bodies left out), then
// every file body in manifest order. It sets each file's Size from its
// Data.
func (a *Archive) encode() ([]byte, error) {
	body := 0
	for i := range a.Files {
		a.Files[i].Size = len(a.Files[i].Data)
		body += a.Files[i].Size
	}
	manifest, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(archiveMagic)+binary.MaxVarintLen64+len(manifest)+body)
	out = append(out, archiveMagic...)
	out = binary.AppendUvarint(out, uint64(len(manifest)))
	out = append(out, manifest...)
	for _, f := range a.Files {
		out = append(out, f.Data...)
	}
	return out, nil
}

// decodeArchive parses archive bytes. It accepts only what encode
// produces: the format-2 magic line, a manifest whose length fits the
// payload and which is the canonical JSON of what it decodes to, file
// sizes that fit the bytes after the manifest, and no trailing bytes — so
// every archive has exactly one byte form, the one its checksum covers.
// File bodies are sub-slices of data.
func decodeArchive(data []byte) (*Archive, error) {
	rest, ok := bytes.CutPrefix(data, []byte(archiveMagic))
	if !ok {
		return nil, fmt.Errorf("not a format-%d archive (bad magic line)", archiveFormatVersion)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, fmt.Errorf("manifest length out of range")
	}
	manifest, rest := rest[w:w+int(n)], rest[w+int(n):]
	var ar Archive
	if err := json.Unmarshal(manifest, &ar); err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	if ar.Format != archiveFormatVersion {
		return nil, fmt.Errorf("archive format %d not supported", ar.Format)
	}
	if canon, err := json.Marshal(&ar); err != nil || !bytes.Equal(canon, manifest) {
		return nil, fmt.Errorf("manifest is not in canonical form")
	}
	for i := range ar.Files {
		size := ar.Files[i].Size
		if size < 0 || size > len(rest) {
			return nil, fmt.Errorf("file %q: size %d out of range", ar.Files[i].Path, size)
		}
		ar.Files[i].Data, rest = rest[:size:size], rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last file", len(rest))
	}
	return &ar, nil
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
