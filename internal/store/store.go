// Package store implements the installation store (SC'15 §3.4.2–3.4.3):
// every concrete configuration gets a unique install prefix derived from
// its spec — architecture, compiler, package, version, variants, and a
// hash of the dependency configuration — so arbitrarily many builds
// coexist. Shared sub-DAGs map to shared prefixes (Fig. 9), installs leave
// provenance files behind for reproducibility, and the directory-layout
// interface renders the site naming conventions of Table 1.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/simfs"
	"repro/internal/singleflight"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// Layout maps a concrete spec to an install path fragment (relative to the
// store root). Implementations reproduce the site conventions of Table 1.
type Layout interface {
	// RelPath renders the directory for a concrete spec.
	RelPath(s *spec.Spec) string
	// Name identifies the convention ("spack", "llnl", "ornl", "tacc").
	Name() string
}

// optionsString renders variant settings for path components
// ("+debug~shared" -> "debug" or "nodebug" style is site-specific; the
// Spack default uses the +/~ sigils directly).
func optionsString(s *spec.Spec) string {
	names := make([]string, 0, len(s.Variants))
	for n := range s.Variants {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if on, _ := s.Variant(n); on {
			b.WriteByte('+')
		} else {
			b.WriteByte('~')
		}
		b.WriteString(n)
	}
	return b.String()
}

func versionString(s *spec.Spec) string {
	if v, ok := s.ConcreteVersion(); ok {
		return v.String()
	}
	return s.Versions.String()
}

// SpackLayout is the paper's default:
// /$arch/$compiler-$comp_version/$package-$version-$options-$hash.
type SpackLayout struct{}

func (SpackLayout) Name() string { return "spack" }

func (SpackLayout) RelPath(s *spec.Spec) string {
	comp := s.Compiler.Name
	if v := s.Compiler.Versions.String(); v != "" {
		comp += "-" + v
	}
	leaf := s.Name + "-" + versionString(s)
	if opts := optionsString(s); opts != "" {
		leaf += "-" + opts
	}
	leaf += "-" + s.DAGHash()
	return s.Arch + "/" + comp + "/" + leaf
}

// LLNLLayout renders /usr/local/tools-style names:
// $package-$compiler-$build-$version (Table 1, LLNL row).
type LLNLLayout struct{}

func (LLNLLayout) Name() string { return "llnl" }

func (LLNLLayout) RelPath(s *spec.Spec) string {
	comp := s.Compiler.Name
	if v := s.Compiler.Versions.String(); v != "" {
		comp += "-" + v
	}
	build := optionsString(s)
	if build == "" {
		build = "default"
	}
	return s.Name + "-" + comp + "-" + build + "-" + versionString(s)
}

// ORNLLayout renders /$arch/$package/$version/$build (Table 1, ORNL row).
type ORNLLayout struct{}

func (ORNLLayout) Name() string { return "ornl" }

func (ORNLLayout) RelPath(s *spec.Spec) string {
	build := s.Compiler.Name
	if opts := optionsString(s); opts != "" {
		build += "-" + opts
	}
	return s.Arch + "/" + s.Name + "/" + versionString(s) + "/" + build
}

// TACCLayout renders Lmod-style hierarchies:
// /$compiler-$comp_version/$mpi/$mpi_version/$package/$version
// (Table 1, TACC row). The MPI components come from the MPI provider in
// the spec's DAG, or "serial" when there is none.
type TACCLayout struct {
	// IsMPI reports whether a package name is an MPI implementation; the
	// caller wires this to the repository's provider index.
	IsMPI func(name string) bool
}

func (TACCLayout) Name() string { return "tacc" }

func (l TACCLayout) RelPath(s *spec.Spec) string {
	comp := s.Compiler.Name
	if v := s.Compiler.Versions.String(); v != "" {
		comp += "-" + v
	}
	mpiName, mpiVer := "serial", "none"
	if l.IsMPI != nil {
		s.Traverse(func(n *spec.Spec) bool {
			if n != s && l.IsMPI(n.Name) {
				mpiName = n.Name
				mpiVer = versionString(n)
				return false
			}
			return true
		})
	}
	return comp + "/" + mpiName + "/" + mpiVer + "/" + s.Name + "/" + versionString(s)
}

// Origin values record how a configuration got into the store — compiled
// from source, relocated out of a binary build cache, or registered as a
// site-provided external. The distinction is provenance: a binary install
// is bit-identical to the source build it was packed from, but auditors
// (and `spack-go find`) want to know which path produced the prefix.
const (
	OriginSource   = "source"
	OriginBinary   = "binary"
	OriginExternal = "external"
	// OriginSpliced marks installs produced by rewiring an existing
	// install's binaries onto a replacement dependency — relocation, not
	// compilation, produced the prefix.
	OriginSpliced = "spliced"
)

// Record describes one installed configuration. The Explicit field is
// mutated only through the index's Promote and Demote (under the shard
// lock); every other field is immutable once the record is inserted.
type Record struct {
	Spec   *spec.Spec // the full concrete spec (cloned; do not mutate)
	Prefix string
	// Explicit marks installs the user asked for, as opposed to
	// dependencies pulled in automatically.
	Explicit bool
	// Origin records the install path: OriginSource, OriginBinary,
	// OriginExternal, or OriginSpliced. Empty in records loaded from
	// pre-origin databases; readers treat empty as OriginSource (or
	// OriginExternal for external specs).
	Origin string
	// SplicedFrom is the full hash of the install this record was rewired
	// from (OriginSpliced, or a binary pull of a spliced archive); empty
	// for ordinary installs.
	SplicedFrom string
	// Lineage is the build-provenance chain, oldest first: every full
	// hash this install was spliced from, transitively. A record spliced
	// from an already-spliced install carries the whole history.
	Lineage []string
}

// RecordOrigin normalizes a record's origin for display: records written
// before origins were tracked have the field empty.
func RecordOrigin(r *Record) string {
	if r.Origin != "" {
		return r.Origin
	}
	if r.Spec != nil && r.Spec.External {
		return OriginExternal
	}
	return OriginSource
}

// Querier is the read-only face of the store: the snapshot iterator
// consumers (views, module generators, CLI listings) use instead of
// holding a copy of the whole database.
type Querier interface {
	// Select returns installed records accepted by filter (nil accepts
	// everything), sorted by prefix.
	Select(filter func(*Record) bool) []*Record
	// Len reports how many configurations are installed.
	Len() int
}

// Store is the installation database plus the on-(simulated-)disk tree.
type Store struct {
	FS     *simfs.FS
	Root   string
	Layout Layout

	index *shardedIndex

	// installs coalesces concurrent installs of one hash, so the builder
	// runs once and every racer shares the leader's record.
	installs singleflight.Group[*Record]

	// gcMu is the lifecycle lock: install and uninstall transactions hold
	// it shared, a garbage-collection sweep (Quiesce) holds it exclusively
	// so its live-set computation and staged deletions never interleave
	// with a mutation.
	gcMu sync.RWMutex
	// pins keeps in-progress build DAGs out of the collectable set; see
	// Pin. Guarded by pinMu, not gcMu — pinning must not block on a sweep.
	pinMu sync.Mutex
	pins  map[string]int
}

// New creates a store rooted at root (e.g. "/spack/opt") on a filesystem.
func New(fs *simfs.FS, root string, layout Layout) (*Store, error) {
	st := &Store{FS: fs, Root: strings.TrimSuffix(root, "/"), Layout: layout,
		index: newShardedIndex(), pins: make(map[string]int)}
	if err := fs.MkdirAll(st.Root); err != nil {
		return nil, err
	}
	return st, nil
}

// Prefix returns the unique install prefix for a concrete spec.
func (st *Store) Prefix(s *spec.Spec) string {
	return st.Root + "/" + st.Layout.RelPath(s)
}

// IsInstalled reports whether this exact configuration is present.
func (st *Store) IsInstalled(s *spec.Spec) bool {
	_, ok := st.index.Lookup(s.FullHash())
	return ok
}

// Lookup returns the record for a concrete spec, if installed.
func (st *Store) Lookup(s *spec.Spec) (*Record, bool) {
	return st.index.Lookup(s.FullHash())
}

// MarkExplicit promotes an installed configuration to an explicit install,
// reporting whether it was present.
func (st *Store) MarkExplicit(s *spec.Spec) bool {
	return st.index.Promote(s.FullHash())
}

// InstallError reports a failed installation.
type InstallError struct {
	Spec string
	Err  error
}

func (e *InstallError) Error() string {
	return fmt.Sprintf("store: install %s: %v", e.Spec, e.Err)
}

func (e *InstallError) Unwrap() error { return e.Err }

// Install ensures one node's configuration is present, running builder to
// populate the prefix when it is not already installed (sub-DAG reuse,
// §3.4.2: "if two configurations share a sub-DAG, Spack reuses the
// sub-DAG's installation"). The spec must be concrete. On success a
// provenance record is written under <prefix>/.spack (§3.4.3). Returns the
// record and whether a build actually ran.
//
// Concurrent installs of the same configuration are deduplicated
// per-hash: one caller becomes the leader and runs builder, the rest wait
// and share its outcome (including failure), so the builder runs exactly
// once instead of racing to build twice and discarding the loser's work.
func (st *Store) Install(s *spec.Spec, explicit bool, builder func(prefix string) error) (*Record, bool, error) {
	return st.InstallFrom(s, explicit, OriginSource, builder)
}

// InstallFrom is Install with an explicit origin label (OriginSource,
// OriginBinary). Binary-cache pulls use it so the database records which
// installs were relocated from archives rather than compiled; the
// singleflight/promotion discipline is identical. External specs are
// always recorded as OriginExternal regardless of the requested origin.
func (st *Store) InstallFrom(s *spec.Spec, explicit bool, origin string, builder func(prefix string) error) (*Record, bool, error) {
	return st.InstallTxn(nil, s, explicit, origin, builder)
}

// lookupPromote is the reuse fast path: present configurations are
// returned immediately, promoted to explicit under the shard lock when
// the caller asked for an explicit install.
func (st *Store) lookupPromote(hash string, explicit bool) (*Record, bool) {
	r, ok := st.index.Lookup(hash)
	if !ok {
		return nil, false
	}
	if explicit {
		st.index.Promote(hash)
	}
	return r, true
}

// writeProvenance stores the files §3.4.3 lists: the concrete spec (enough
// to reproduce the build even if concretization preferences change) and a
// build log.
func (st *Store) writeProvenance(s *spec.Spec, prefix string) error {
	meta := prefix + "/.spack"
	if err := st.FS.MkdirAll(meta); err != nil {
		return err
	}
	if err := st.FS.WriteFile(meta+"/spec", []byte(s.String()+"\n")); err != nil {
		return err
	}
	if err := st.FS.WriteFile(meta+"/spec.tree", []byte(s.TreeString())); err != nil {
		return err
	}
	// spec.json preserves the exact edge structure (the flat spec string
	// flattens dependencies), so reindexing reproduces identical hashes.
	data, err := syntax.EncodeJSON(s)
	if err != nil {
		return err
	}
	if err := st.FS.WriteFile(meta+"/spec.json", data); err != nil {
		return err
	}
	return st.FS.WriteFile(meta+"/build.log",
		[]byte(fmt.Sprintf("installed %s into %s\n", s.Name, prefix)))
}

// ReadProvenance returns the stored concrete spec string for a prefix.
func (st *Store) ReadProvenance(prefix string) (string, error) {
	data, err := st.FS.ReadFile(prefix + "/.spack/spec")
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}

// Select returns installed records accepted by filter (nil accepts
// everything), sorted by prefix — the snapshot iterator consumers use
// instead of copying the whole index and re-filtering.
func (st *Store) Select(filter func(*Record) bool) []*Record {
	return st.index.Select(filter)
}

// All returns every installed record sorted by prefix.
func (st *Store) All() []*Record {
	return st.index.Select(nil)
}

// Find returns installed records whose spec satisfies the query — the
// engine behind `spack find mpileaks@1.1 %gcc`.
func (st *Store) Find(query *spec.Spec) []*Record {
	return st.index.Select(func(r *Record) bool { return r.Spec.Satisfies(query) })
}

// DependentsOf returns the installed records whose DAGs contain the given
// configuration (other than itself).
func (st *Store) DependentsOf(s *spec.Spec) []*Record {
	hash := s.FullHash()
	return st.index.Select(func(r *Record) bool {
		if r.Spec.FullHash() == hash {
			return false
		}
		found := false
		r.Spec.Traverse(func(n *spec.Spec) bool {
			if n.Name == s.Name && n.FullHash() == hash {
				found = true
				return false
			}
			return true
		})
		return found
	})
}

// UninstallError reports a refused or failed uninstall.
type UninstallError struct {
	Spec       string
	Dependents []string
	Err        error
}

func (e *UninstallError) Error() string {
	if len(e.Dependents) > 0 {
		return fmt.Sprintf("store: cannot uninstall %s: required by %s",
			e.Spec, strings.Join(e.Dependents, ", "))
	}
	return fmt.Sprintf("store: uninstall %s: %v", e.Spec, e.Err)
}

// Uninstall removes an installed configuration. It refuses when other
// installed specs depend on it, unless force is set. The removal runs as
// its own journaled transaction.
func (st *Store) Uninstall(s *spec.Spec, force bool) error {
	return st.UninstallTxn(nil, s, force)
}

// Len reports how many configurations are installed.
func (st *Store) Len() int {
	return st.index.Len()
}

var _ Querier = (*Store)(nil)
