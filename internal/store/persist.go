package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/simfs"
	"repro/internal/syntax"
	"repro/internal/txn"
)

// On-disk layout under <root>/.spack-db:
//
//	manifest.json        — table of contents: which shard files exist
//	shards/<prefix>.json — one file per hash-prefix shard
const (
	dbDirName            = ".spack-db"
	manifestFile         = "manifest.json"
	shardsDirName        = "shards"
	shardedLayoutVersion = 1
)

// ErrNoDatabase reports that no database has been saved under the store
// root yet.
var ErrNoDatabase = errors.New("store: no database")

// dbEntry is the serialized form of one installed record. The spec is
// stored in spec syntax — the same provenance format as .spack/spec — so
// the database is human-readable and survives code changes.
type dbEntry struct {
	// Spec is the flat rendering, for human readers.
	Spec string `json:"spec"`
	// SpecJSON preserves the DAG's exact edge structure so hashes survive
	// the round trip.
	SpecJSON json.RawMessage `json:"spec_json"`
	Prefix   string          `json:"prefix"`
	Explicit bool            `json:"explicit"`
	// Origin distinguishes source builds from binary-cache pulls,
	// externals and splices; absent in databases written before origins
	// were tracked.
	Origin string `json:"origin,omitempty"`
	// SplicedFrom and Lineage persist splice provenance: the full hash
	// this install was rewired from and the whole chain, oldest first.
	SplicedFrom string   `json:"spliced_from,omitempty"`
	Lineage     []string `json:"lineage,omitempty"`
}

// encodeEntries renders snapshot records to the JSON format of one shard
// file.
func encodeEntries(entries []Record) ([]byte, error) {
	out := make([]dbEntry, 0, len(entries))
	for _, e := range entries {
		encoded, err := syntax.EncodeJSON(e.Spec)
		if err != nil {
			return nil, err
		}
		out = append(out, dbEntry{
			Spec:        e.Spec.String(),
			SpecJSON:    encoded,
			Prefix:      e.Prefix,
			Explicit:    e.Explicit,
			Origin:      e.Origin,
			SplicedFrom: e.SplicedFrom,
			Lineage:     e.Lineage,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// decodeEntries parses a shard file back into records keyed by hash.
func decodeEntries(data []byte) (map[string]*Record, error) {
	var entries []dbEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("store: corrupt database: %w", err)
	}
	records := make(map[string]*Record, len(entries))
	for _, e := range entries {
		s, err := syntax.DecodeJSON(e.SpecJSON)
		if err != nil {
			return nil, fmt.Errorf("store: bad spec in database (%q): %w", e.Spec, err)
		}
		records[s.FullHash()] = &Record{Spec: s, Prefix: e.Prefix, Explicit: e.Explicit,
			Origin: e.Origin, SplicedFrom: e.SplicedFrom, Lineage: e.Lineage}
	}
	return records, nil
}

func encodeManifest(m manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// readManifest loads the manifest, ErrNoDatabase when none was written.
func readManifest(fs *simfs.FS, dbDir string) (manifest, error) {
	var m manifest
	path := dbDir + "/" + manifestFile
	if ex, _ := fs.Stat(path); !ex {
		return m, fmt.Errorf("%w at %s", ErrNoDatabase, path)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if m.Version != shardedLayoutVersion {
		return m, fmt.Errorf("store: manifest version %d not supported", m.Version)
	}
	return m, nil
}

// writeFileAtomic writes data to a temp path in the target's directory and
// renames it into place, so a crash or injected I/O failure mid-write
// never leaves a truncated file at the final path. It shares the
// transaction layer's implementation: the database and the write-ahead
// journal use the same durability protocol.
func writeFileAtomic(fs *simfs.FS, path string, data []byte) error {
	return txn.WriteFileAtomic(fs, path, data)
}

// dbDir is the database directory under the store root.
func (st *Store) dbDir() string { return st.Root + "/" + dbDirName }

// Save persists the installation database, so a new Store handle (a new
// process in real Spack) can pick up the installed state. Only shards
// dirtied since the last Save are rewritten, and every file is written
// atomically (temp + rename).
func (st *Store) Save() error {
	return st.index.Save(st.FS, st.dbDir())
}

// Load reads a previously saved database into this (empty or stale)
// handle, replacing its in-memory index. Specs are re-parsed from spec
// syntax; entries that no longer parse are reported.
func (st *Store) Load() error {
	return st.index.Load(st.FS, st.dbDir())
}

// Reindex rebuilds the database by scanning install prefixes for their
// provenance files — Spack's recovery path when the index is lost. It
// walks the store tree for .spack/spec files and reconstructs records
// (explicit flags are lost; every entry becomes implicit). All shards are
// marked dirty, so the next Save rewrites the full on-disk layout.
func (st *Store) Reindex() (int, error) {
	installed := make(map[string]*Record)
	count := 0
	err := st.FS.Walk(st.Root, func(p string, isLink bool) error {
		const marker = "/.spack/spec.json"
		if isLink || len(p) < len(marker) || p[len(p)-len(marker):] != marker {
			return nil
		}
		data, err := st.FS.ReadFile(p)
		if err != nil {
			return err
		}
		s, err := syntax.DecodeJSON(data)
		if err != nil {
			return fmt.Errorf("store: bad provenance at %s: %w", p, err)
		}
		prefix := p[:len(p)-len(marker)]
		installed[s.FullHash()] = &Record{Spec: s, Prefix: prefix}
		count++
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.index.Replace(installed)
	return count, nil
}

// Open creates a Store handle on an existing tree and loads its database
// if one exists (otherwise the handle starts empty). Any transaction
// journals left by a crashed process are resolved — committed ones
// replayed, interrupted ones rolled back — before the handle is returned.
func Open(fs *simfs.FS, root string, layout Layout) (*Store, error) {
	st, err := New(fs, root, layout)
	if err != nil {
		return nil, err
	}
	if err := st.Load(); err != nil && !errors.Is(err, ErrNoDatabase) {
		return nil, err
	}
	if _, err := st.Recover(); err != nil {
		return nil, err
	}
	return st, nil
}
