package env

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// LockVersion is the spack.lock schema version this code writes.
const LockVersion = 1

// LockRoot pins one manifest entry to the full hash it concretized to.
type LockRoot struct {
	Expr string `json:"expr"`
	Hash string `json:"hash"`
}

// Lock is the committed concretization of an environment — the spack.lock
// file. Roots preserve manifest order; Specs maps each root's full hash to
// its serialized concrete DAG, so a later process can reproduce (and
// uninstall) exactly what was installed without re-concretizing.
type Lock struct {
	Version int                        `json:"version"`
	Roots   []LockRoot                 `json:"roots"`
	Specs   map[string]json.RawMessage `json:"specs"`
}

// Spec decodes the concrete DAG locked for a root hash.
func (l *Lock) Spec(hash string) (*spec.Spec, error) {
	raw, ok := l.Specs[hash]
	if !ok {
		return nil, fmt.Errorf("env: lockfile has no spec for hash %s", hash)
	}
	return syntax.DecodeJSON(raw)
}

// ReuseCandidates decodes every locked concrete DAG, keyed by full hash —
// a lockfile is a ReuseSource, so re-planning under -reuse sticks to the
// configurations the environment already committed to. Undecodable
// entries are skipped; the lock is a preference here, not a requirement.
func (l *Lock) ReuseCandidates() (map[string]*spec.Spec, error) {
	out := make(map[string]*spec.Spec, len(l.Specs))
	for hash := range l.Specs {
		s, err := l.Spec(hash)
		if err != nil {
			continue
		}
		out[hash] = s
	}
	return out, nil
}

// ReuseFingerprint identifies the locked set by its sorted root hashes.
func (l *Lock) ReuseFingerprint() string {
	hashes := make([]string, 0, len(l.Specs))
	for h := range l.Specs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return "lock:" + strings.Join(hashes, ",")
}

// readLock loads a lockfile; a missing file is an empty lock (the
// environment has never been installed).
func readLock(fs *simfs.FS, path string) (*Lock, error) {
	if exists, isDir := fs.Stat(path); !exists || isDir {
		return &Lock{Version: LockVersion, Specs: map[string]json.RawMessage{}}, nil
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l, err := decodeLock(data)
	if err != nil {
		return nil, fmt.Errorf("env: lockfile %s: %w", path, err)
	}
	return l, nil
}

// decodeLock decodes a lockfile's bytes. A lock from a newer version of
// this tool is refused; the locked specs themselves are decoded only when
// asked for (Spec).
func decodeLock(data []byte) (*Lock, error) {
	var l Lock
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	if l.Version > LockVersion {
		return nil, fmt.Errorf("version %d, newer than this tool (%d)", l.Version, LockVersion)
	}
	if l.Specs == nil {
		l.Specs = map[string]json.RawMessage{}
	}
	return &l, nil
}

// Encode renders the lockfile's bytes: indented JSON and a final newline.
// Every writer of spack.lock stages these bytes into its transaction.
func (l *Lock) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(l, "", "  ")
	return append(data, '\n'), err
}
