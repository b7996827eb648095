// Package buildcache implements a binary build cache for the install
// store: the payoff of §3.4.2's hashed, shareable prefixes and §3.5's
// rpath-based isolation. Push packs an installed prefix into a
// deterministic relocatable archive — a manifest of files, the full
// concrete spec as provenance, the recorded compiler command lines, a
// SHA-256 checksum, a signed metadata document, and a relocation table of
// every occurrence of the source store root and dependency prefixes. Pull
// verifies the checksum, rewrites prefixes and rpaths through the shared
// relocate engine, and installs into the target store through
// store.InstallTxn with the same singleflight/promotion discipline as a
// real build — so build.Builder can skip fetch/stage/compile for any DAG
// node whose full hash is already cached, the way Spack's buildcaches do.
package buildcache

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/relocate"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/txn"
)

// Kind classifies cache failures so the builder can report why a node
// fell back to a source build.
type Kind string

const (
	// KindMissing: no archive for the hash (a plain cache miss).
	KindMissing Kind = "missing"
	// KindChecksum: archive bytes do not match the recorded SHA-256.
	KindChecksum Kind = "checksum"
	// KindManifest: the archive parsed wrong or disagrees with the spec.
	KindManifest Kind = "manifest"
	// KindRelocation: path rewriting did not match the relocation table.
	KindRelocation Kind = "relocation"
	// KindDeps: a dependency prefix needed for relocation is not
	// installed in the target store.
	KindDeps Kind = "deps"
	// KindIO: the backend or target filesystem failed.
	KindIO Kind = "io"
	// KindSignature: the archive is unsigned, signed by an untrusted
	// key, or carries an invalid signature, and the trust policy is
	// enforcing.
	KindSignature Kind = "signature"
)

// Error reports a failed cache operation.
type Error struct {
	Op   string // "push" or "pull"
	Spec string
	Kind Kind
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("buildcache: %s %s: %s: %v", e.Op, e.Spec, e.Kind, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// ErrorKind extracts the failure kind from any error chain; empty when
// the error did not come from the cache.
func ErrorKind(err error) Kind {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Kind
	}
	return ""
}

// Entry summarizes one cached archive for listings.
type Entry struct {
	Package  string
	Version  string
	FullHash string
	Checksum string
	Files    int
	// Origin is the spec string recorded in the archive — where the
	// binaries came from, for provenance listings.
	Origin string
	// SplicedFrom and Lineage carry the splice provenance recorded in the
	// signed metadata document: the full hash this install was rewired
	// from, and the whole chain.
	SplicedFrom string
	Lineage     []string
	// Signed reports whether a detached signature rides with the
	// archive; SignedBy names the signing key when one does. Trusted is
	// the verdict of the cache's Verifier (always false without one).
	Signed   bool
	SignedBy string
	Trusted  bool
}

// PullResult reports a successful Pull.
type PullResult struct {
	Record *store.Record
	// Ran is false when a concurrent installer of the same hash led
	// through the store's singleflight and this call shared its outcome.
	Ran bool
	// Time is the virtual time charged for unpack + relocation.
	Time time.Duration
	// Files is how many files and symlinks the archive carried.
	Files int
	// Warning carries a trust-policy complaint that did not block the
	// pull (TrustWarn) — "archive is unsigned", an untrusted key, etc.
	Warning string
}

// Cache is a binary build cache over a byte-transport backend (a mirror's
// build_cache/ area or a directory tree).
type Cache struct {
	be Backend

	// Signer, when set, signs each pushed archive with a detached
	// signature (stored as <hash>.sig) over the checksum and metadata
	// digest. A Signer whose Sign returns (nil, nil) has no identity
	// configured; the push proceeds unsigned.
	Signer Signer
	// Verifier judges detached signatures on the read path; Policy
	// decides what an unsigned or untrusted archive may do there. The
	// zero values keep the pre-signing behaviour.
	Verifier Verifier
	Policy   TrustPolicy
}

// New creates a cache on a backend.
func New(be Backend) *Cache { return &Cache{be: be} }

// Has reports whether an archive (and its checksum) exists for a full
// spec hash — the builder's cheap pre-check before attempting a Pull.
// It stats the checksum record instead of pulling it, so remote
// backends answer with a HEAD rather than a whole-archive transfer.
func (c *Cache) Has(hash string) bool {
	ok, err := c.be.Stat(checksumName(hash))
	return ok && err == nil
}

// meta fetches the metadata document for a hash; absent is (nil, nil) —
// pre-metadata archives have none, and the signature scheme falls back
// to covering the bare checksum.
func (c *Cache) meta(hash string) ([]byte, error) {
	data, ok, err := c.be.Get(metaName(hash))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return data, nil
}

// Verify checks that an archive for a full spec hash exists on the
// backend and that its payload matches the recorded SHA-256 — the
// scheduler's gate before a lease completion unlocks dependents, so a
// worker cannot claim success for an archive it never pushed (or pushed
// torn). Backends that record digests at write time (Summer) answer
// without moving the archive; others pay one Get and a re-hash.
func (c *Cache) Verify(hash string) error {
	fail := func(kind Kind, err error) error {
		return &Error{Op: "verify", Spec: hash, Kind: kind, Err: err}
	}
	sumData, ok, err := c.be.Get(checksumName(hash))
	if err != nil {
		return fail(KindIO, err)
	}
	if !ok {
		return fail(KindMissing, fmt.Errorf("no checksum record"))
	}
	want := strings.TrimSpace(string(sumData))
	var got string
	if s, ok := c.be.(Summer); ok {
		sum, exists, err := s.Sum(archiveName(hash))
		if err != nil {
			return fail(KindIO, err)
		}
		if !exists {
			return fail(KindMissing, fmt.Errorf("checksum record without archive"))
		}
		got = sum
	} else {
		payload, exists, err := c.be.Get(archiveName(hash))
		if err != nil {
			return fail(KindIO, err)
		}
		if !exists {
			return fail(KindMissing, fmt.Errorf("checksum record without archive"))
		}
		got = checksumOf(payload)
	}
	if got != want {
		return fail(KindChecksum, fmt.Errorf("archive sha256 %s does not match recorded %s", got, want))
	}
	// Trust gate: under TrustEnforce an unsigned or untrusted archive
	// fails verification outright — the daemon's proof-of-work check
	// inherits the signature requirement through this path. The metadata
	// document rides into the signed message, so tampered provenance
	// fails here too.
	metaBytes, err := c.meta(hash)
	if err != nil {
		return fail(KindIO, err)
	}
	if _, kind, err := c.checkSignature(hash, want, metaBytes); err != nil {
		return fail(kind, err)
	}
	return nil
}

// RelocFiles converts the packed payload to the relocate engine's file
// form, ready for relocate.Materialize.
func (a *Archive) RelocFiles() []relocate.File {
	out := make([]relocate.File, len(a.Files))
	for i, f := range a.Files {
		out[i] = relocate.File{Path: f.Path, Symlink: f.Symlink, Data: f.Data}
	}
	return out
}

// WantCounts returns the recorded relocation table keyed by file path —
// the per-file occurrence counts Materialize re-verifies while rewriting.
func (a *Archive) WantCounts() map[string]map[string]int {
	out := make(map[string]map[string]int, len(a.Relocations))
	for _, r := range a.Relocations {
		out[r.Path] = r.Occurrences
	}
	return out
}

// Fetch retrieves, checksums, and trust-checks the archive for a full
// spec hash without installing it — the splice executor re-materializes
// cone prefixes from cached payloads through this path. The returned
// warning carries a non-blocking trust complaint (TrustWarn), mirroring
// Pull. KindMissing when the backend has no archive for the hash.
func (c *Cache) Fetch(hash string) (*Archive, string, error) {
	ar, _, warning, err := c.fetchVerified("fetch", hash, nil)
	return ar, warning, err
}

// fetchVerified is the read path Pull and Fetch share: get the archive
// for hash, check it against its recorded checksum, judge its detached
// signature (over the checksum and the metadata digest) before any
// archive byte is trusted, and decode it. Enforce rejects; warn returns
// the complaint and proceeds. op names the caller in errors, and s, when
// set, the spec (rendered only on failure); without it errors name the
// hash. It also returns the metadata document (nil when absent).
func (c *Cache) fetchVerified(op, hash string, s *spec.Spec) (*Archive, []byte, string, error) {
	fail := func(kind Kind, err error) (*Archive, []byte, string, error) {
		label := hash
		if s != nil {
			label = s.String()
		}
		return nil, nil, "", &Error{Op: op, Spec: label, Kind: kind, Err: err}
	}
	payload, ok, err := c.be.Get(archiveName(hash))
	if err != nil {
		return fail(KindIO, err)
	}
	if !ok {
		return fail(KindMissing, fmt.Errorf("no archive for hash %s", hash))
	}
	sumData, ok, err := c.be.Get(checksumName(hash))
	if err != nil {
		return fail(KindIO, err)
	}
	if !ok {
		return fail(KindChecksum, fmt.Errorf("archive has no checksum"))
	}
	want := strings.TrimSpace(string(sumData))
	if got := checksumOf(payload); got != want {
		return fail(KindChecksum, fmt.Errorf("archive checksum %s does not match recorded %s", got[:12], want))
	}
	metaBytes, err := c.meta(hash)
	if err != nil {
		return fail(KindIO, err)
	}
	warning, kind, err := c.checkSignature(hash, want, metaBytes)
	if err != nil {
		return fail(kind, err)
	}
	ar, err := decodeArchive(payload)
	if err != nil {
		return fail(KindManifest, fmt.Errorf("corrupt archive: %w", err))
	}
	if ar.FullHash != hash {
		return fail(KindManifest, fmt.Errorf("archive is for hash %s, want %s", ar.FullHash, hash))
	}
	return ar, metaBytes, warning, nil
}

// Push packs the installed prefix of a concrete spec into a relocatable
// archive and stores it (with its SHA-256 checksum and signed metadata
// document) on the backend. The spec must be installed; externals cannot
// be cached — their prefixes are site-owned and not relocatable.
func (c *Cache) Push(st *store.Store, s *spec.Spec) (*Entry, error) {
	fail := func(kind Kind, err error) (*Entry, error) {
		return nil, &Error{Op: "push", Spec: s.String(), Kind: kind, Err: err}
	}
	rec, ok := st.Lookup(s)
	if !ok {
		return fail(KindMissing, fmt.Errorf("not installed"))
	}
	if rec.Spec.External {
		return fail(KindManifest, fmt.Errorf("external packages cannot be cached"))
	}
	v, _ := s.ConcreteVersion()

	ar := &Archive{
		Format:    archiveFormatVersion,
		Package:   s.Name,
		Version:   v.String(),
		FullHash:  s.FullHash(),
		Spec:      s.String(),
		StoreRoot: st.Root,
		Prefix:    rec.Prefix,
	}
	specJSON := syntax.EncodeJSON(rec.Spec)
	ar.SpecJSON = specJSON

	// Dependency prefixes, resolved from the source store — the
	// relocation sources alongside the store root and the own prefix.
	sources := []string{rec.Prefix, st.Root}
	for _, dn := range s.TopoOrder() {
		if dn.Name == s.Name {
			continue
		}
		var depPrefix string
		if dn.External {
			depPrefix = dn.Path
		} else if drec, ok := st.Lookup(dn); ok {
			depPrefix = drec.Prefix
		} else {
			return fail(KindDeps, fmt.Errorf("dependency %s is not installed", dn.Name))
		}
		if ar.DepPrefixes == nil {
			ar.DepPrefixes = make(map[string]string)
		}
		ar.DepPrefixes[dn.Name] = depPrefix
		sources = append(sources, depPrefix)
	}
	table := relocate.Identity(sources...) // no rewriting: we only want counts

	// Pack the prefix tree and record the relocation table.
	files, err := relocate.Snapshot(st.FS, rec.Prefix)
	if err != nil {
		return fail(KindIO, err)
	}
	for _, f := range files {
		if f.Symlink != "" {
			ar.Files = append(ar.Files, archiveFile{Path: f.Path, Symlink: f.Symlink})
			continue
		}
		ar.Files = append(ar.Files, archiveFile{Path: f.Path, Data: f.Data})
		if _, counts := table.Rewrite(f.Data); len(counts) > 0 {
			ar.Relocations = append(ar.Relocations, archiveReloc{Path: f.Path, Occurrences: counts})
		}
	}

	// Recorded compiler command lines, from the build log provenance.
	if log, err := st.FS.ReadFile(rec.Prefix + "/.spack/build.out"); err == nil {
		ar.Commands = parseBuildCommands(log)
	}

	payload := ar.encode()
	sum := checksumOf(payload)

	// The metadata document: the provenance claims (origin, splice
	// lineage) the signature makes tamper-evident.
	metaDoc := &Metadata{
		Format:        archiveFormatVersion,
		Package:       ar.Package,
		Version:       ar.Version,
		FullHash:      ar.FullHash,
		Spec:          ar.Spec,
		SpecJSON:      specJSON,
		ArchiveSHA256: sum,
		Origin:        string(rec.Origin),
		SplicedFrom:   rec.SplicedFrom,
		Lineage:       rec.Lineage,
	}
	metaBytes, err := EncodeMetadata(metaDoc)
	if err != nil {
		return fail(KindManifest, err)
	}

	if err := c.be.Put(archiveName(ar.FullHash), payload); err != nil {
		return fail(KindIO, err)
	}
	if err := c.be.Put(checksumName(ar.FullHash), []byte(sum+"\n")); err != nil {
		return fail(KindIO, err)
	}
	if err := c.be.Put(metaName(ar.FullHash), metaBytes); err != nil {
		return fail(KindIO, err)
	}
	signed := false
	if c.Signer != nil {
		sig, err := c.Signer.Sign(SignedMessage(sum, metaBytes))
		if err != nil {
			return fail(KindSignature, err)
		}
		if sig != nil {
			if err := c.be.Put(sigName(ar.FullHash), sig); err != nil {
				return fail(KindIO, err)
			}
			signed = true
		}
	}
	if !signed {
		// An unsigned push must not leave a stale signature from an
		// earlier signed push claiming trust the new bytes never earned.
		if err := c.be.Delete(sigName(ar.FullHash)); err != nil {
			return fail(KindIO, err)
		}
	}
	return &Entry{
		Package: ar.Package, Version: ar.Version,
		FullHash: ar.FullHash, Checksum: sum, Files: len(ar.Files),
		Origin: ar.Spec, SplicedFrom: rec.SplicedFrom, Lineage: rec.Lineage,
		Signed: signed,
	}, nil
}

// PushDAG pushes every non-external node of a concrete DAG (dependencies
// first) and returns the entries in push order.
func (c *Cache) PushDAG(st *store.Store, root *spec.Spec) ([]*Entry, error) {
	var out []*Entry
	for _, n := range root.TopoOrder() {
		if n.External {
			continue
		}
		e, err := c.Push(st, n)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Pull installs a concrete spec from the cache into a store: it verifies
// the archive checksum, rewrites every occurrence of the source store
// root and dependency prefixes (and with them the embedded rpaths) for
// the target store through the shared relocate engine, and installs
// through store.InstallTxn — the same singleflight, promotion, and
// provenance discipline as a source build. Each file is written once, to
// its final path, inside the transaction that journaled the prefix, so
// an I/O failure mid-unpack leaves the partially written prefix to be
// rolled back by the store and the index untouched. The spec's
// dependencies must already be installed.
func (c *Cache) Pull(st *store.Store, s *spec.Spec, explicit bool) (*PullResult, error) {
	return c.PullTxn(st, nil, s, explicit)
}

// PullTxn is Pull staging the install into a caller-owned transaction
// (nil behaves like Pull): environments pull many archives under one
// transaction so the whole delta commits or rolls back together.
func (c *Cache) PullTxn(st *store.Store, t *txn.Txn, s *spec.Spec, explicit bool) (*PullResult, error) {
	fail := func(kind Kind, err error) (*PullResult, error) {
		return nil, &Error{Op: "pull", Spec: s.String(), Kind: kind, Err: err}
	}
	// Reuse fast path: already installed — nothing to verify or unpack.
	if rec, ok := st.Lookup(s); ok {
		if explicit {
			st.MarkExplicit(s)
		}
		return &PullResult{Record: rec, Ran: false}, nil
	}

	hash := s.FullHash()
	ar, metaBytes, warning, err := c.fetchVerified("pull", hash, s)
	if err != nil {
		return nil, err
	}
	if ar.Package != s.Name {
		return fail(KindManifest, fmt.Errorf("archive is for package %s, want %s", ar.Package, s.Name))
	}
	// Splice provenance rides the metadata document into the installed
	// record, so a pulled spliced binary still says what it was rewired
	// from.
	meta := txn.RecordMeta{Explicit: explicit, Origin: string(store.OriginBinary)}
	if metaBytes != nil {
		if md, err := DecodeMetadata(metaBytes); err == nil && md.FullHash == hash {
			meta.SplicedFrom = md.SplicedFrom
			meta.Lineage = md.Lineage
		}
	}

	// Build the relocation mapping: source store root, own prefix, and
	// every dependency prefix map to their locations in the target store.
	byName := make(map[string]*spec.Spec)
	for _, dn := range s.TopoOrder() {
		byName[dn.Name] = dn
	}
	pairs := map[string]string{
		ar.Prefix:    st.Prefix(s),
		ar.StoreRoot: st.Root,
	}
	for depName, srcPrefix := range ar.DepPrefixes {
		dn, ok := byName[depName]
		if !ok {
			return fail(KindManifest, fmt.Errorf("archive names dependency %s absent from the spec DAG", depName))
		}
		if dn.External {
			pairs[srcPrefix] = dn.Path
			continue
		}
		drec, ok := st.Lookup(dn)
		if !ok {
			return fail(KindDeps, fmt.Errorf("dependency %s is not installed in the target store", depName))
		}
		pairs[srcPrefix] = drec.Prefix
	}
	wantCounts := ar.WantCounts()
	// Rpath sanity: after rewriting, no embedded rpath may still point
	// into the source store (the isolation §3.5.2 bought).
	forbid := ""
	if ar.StoreRoot != st.Root {
		forbid = ar.StoreRoot
	}
	opts := relocate.Options{
		Table:      relocate.NewTable(pairs),
		Want:       wantCounts,
		ForbidRoot: forbid,
	}

	relFiles := ar.RelocFiles()

	// Unpack through the store's install discipline, charging a private
	// meter so the report's virtual time reflects the cached fast path.
	meter := simfs.NewMeter()
	opts.Meter = meter
	prefixFS := st.FS.WithMeter(meter)
	files := 0
	rec, ran, err := st.InstallTxn(t, s, meta, func(prefix string) error {
		n, err := relocate.Materialize(prefixFS, prefix, relFiles, opts)
		files = n
		if err != nil {
			kind := KindIO
			if relocate.IsRelocationError(err) {
				kind = KindRelocation
			}
			return &Error{Op: "pull", Spec: s.String(), Kind: kind, Err: err}
		}
		return nil
	})
	if err != nil {
		// Surface the cache-kinded error when the store wrapped ours;
		// otherwise classify as IO.
		if ErrorKind(err) != "" {
			return nil, err
		}
		return fail(KindIO, err)
	}
	return &PullResult{Record: rec, Ran: ran, Time: meter.Cost(), Files: files, Warning: warning}, nil
}

// List returns an Entry per cached archive, sorted by package, version,
// then hash.
func (c *Cache) List() ([]*Entry, error) {
	names, err := c.be.List()
	if err != nil {
		return nil, err
	}
	var out []*Entry
	for _, name := range names {
		hash, ok := strings.CutSuffix(name, ".spack.json")
		if !ok {
			continue
		}
		payload, ok, err := c.be.Get(name)
		if err != nil || !ok {
			continue
		}
		ar, err := decodeArchive(payload)
		if err != nil {
			continue
		}
		sum := ""
		if sd, ok, _ := c.be.Get(checksumName(hash)); ok {
			sum = strings.TrimSpace(string(sd))
		}
		e := &Entry{
			Package: ar.Package, Version: ar.Version,
			FullHash: ar.FullHash, Checksum: sum, Files: len(ar.Files),
			Origin: ar.Spec,
		}
		var metaBytes []byte
		if mb, ok, _ := c.be.Get(metaName(hash)); ok {
			metaBytes = mb
			if md, err := DecodeMetadata(mb); err == nil {
				e.SplicedFrom = md.SplicedFrom
				e.Lineage = md.Lineage
			}
		}
		if sigData, ok, _ := c.be.Get(sigName(hash)); ok {
			e.Signed = true
			if sig, err := DecodeSignature(sigData); err == nil {
				e.SignedBy = sig.Key
			}
			if c.Verifier != nil && sum != "" {
				e.Trusted = c.Verifier.VerifySignature(SignedMessage(sum, metaBytes), sigData) == nil
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package != out[j].Package {
			return out[i].Package < out[j].Package
		}
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].FullHash < out[j].FullHash
	})
	return out, nil
}

// Delete removes an archive and its sidecars (checksum, metadata,
// signature) from the backend. Missing objects are a no-op, so deleting
// an unknown hash is harmless.
func (c *Cache) Delete(hash string) error {
	for _, name := range []string{archiveName(hash), checksumName(hash), metaName(hash), sigName(hash)} {
		if err := c.be.Delete(name); err != nil {
			return &Error{Op: "delete", Spec: hash, Kind: KindIO, Err: err}
		}
	}
	return nil
}

// StageDelete stages the removal of an archive and its sidecars into a
// journaled transaction, when the backend supports it (TxnDeleter).
// Reports false when it does not — the caller falls back to Delete after
// commit.
func (c *Cache) StageDelete(t *txn.Txn, hash string) bool {
	d, ok := c.be.(TxnDeleter)
	if !ok {
		return false
	}
	for _, name := range []string{archiveName(hash), checksumName(hash), metaName(hash), sigName(hash)} {
		d.StageDelete(t, name)
	}
	return true
}

// ArchiveUsage aggregates the backend's per-object access stamps into
// one unit per cached archive: the archive, its checksum, metadata, and
// any signature count together, under the most recent access of the set.
type ArchiveUsage struct {
	FullHash string
	Bytes    int64
	Seq      uint64
	Last     time.Time
}

// Usage enumerates cached archives with their sizes and last accesses,
// sorted by hash — the input the LRU mirror prune ranks. Backends
// without access stamps (no UsageReporter) report an error.
func (c *Cache) Usage() ([]ArchiveUsage, error) {
	ur, ok := c.be.(UsageReporter)
	if !ok {
		return nil, fmt.Errorf("buildcache: backend %T records no access stamps", c.be)
	}
	us, err := ur.Usage()
	if err != nil {
		return nil, err
	}
	byHash := make(map[string]*ArchiveUsage)
	for _, u := range us {
		hash, ok := hashOfName(u.Name)
		if !ok {
			continue
		}
		au := byHash[hash]
		if au == nil {
			au = &ArchiveUsage{FullHash: hash}
			byHash[hash] = au
		}
		au.Bytes += u.Size
		if u.Seq > au.Seq {
			au.Seq = u.Seq
		}
		if u.Last.After(au.Last) {
			au.Last = u.Last
		}
	}
	out := make([]ArchiveUsage, 0, len(byHash))
	for _, au := range byHash {
		out = append(out, *au)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullHash < out[j].FullHash })
	return out, nil
}

// Keys returns hash → SHA-256 checksum for every cached archive — the
// verification material `spack-go buildcache keys` prints.
func (c *Cache) Keys() (map[string]string, error) {
	names, err := c.be.List()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, name := range names {
		hash, ok := strings.CutSuffix(name, ".sha256")
		if !ok {
			continue
		}
		if data, ok, _ := c.be.Get(name); ok {
			out[hash] = strings.TrimSpace(string(data))
		}
	}
	return out, nil
}
