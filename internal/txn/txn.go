// Package txn is the journaled mutation layer under the store, views and
// module generators: every multi-layer change — store index records,
// install prefixes, view symlinks, module files — goes through one
// write-ahead-journaled transaction, so a crash at any point leaves the
// system either fully pre- or fully post-state after journal recovery.
// The model is Nix's atomic profile flip adapted to Spack's mutable store:
//
//   - Before the commit point, the only on-disk effects are newly created
//     install prefixes, each registered in the journal *before* its first
//     byte is written. An aborted transaction (crash or Rollback) removes
//     them, restoring the pre-state.
//   - Commit atomically persists the full redo log (temp + rename), then
//     applies it. Every redo operation is idempotent, so recovery after a
//     mid-apply crash simply replays the whole log — the post-state.
//
// The journal is a directory of JSON files, one per in-flight
// transaction; an empty directory means the system is consistent. Each
// staged op is encoded once, when it is staged; a flush writes the
// document's header, its created prefixes and those stored encodings
// compactly, without re-marshalling anything.
package txn

import (
	"encoding/json"
	"fmt"
	"path"
	"sync"
	"sync/atomic"

	"repro/internal/jsonenc"
	"repro/internal/simfs"
)

// OpKind enumerates the redo operations a transaction can stage.
type OpKind string

const (
	// OpInsertRecord adds an installation record to the store index. The
	// serialized spec rides in the journal so recovery can rebuild the
	// record without the in-memory state of the crashed process.
	OpInsertRecord OpKind = "insert-record"
	// OpRemoveRecord deletes an installation record by full hash.
	OpRemoveRecord OpKind = "remove-record"
	// OpRemovePrefix deletes an install prefix tree. Destructive, so it
	// only ever runs after the commit point.
	OpRemovePrefix OpKind = "remove-prefix"
	// OpLink creates or atomically retargets a view symlink
	// (symlink-to-temp + rename, so readers never see a missing or torn
	// link).
	OpLink OpKind = "link"
	// OpUnlink removes a view symlink; missing links are a no-op so the
	// operation replays cleanly.
	OpUnlink OpKind = "unlink"
	// OpWriteFile writes a file (module files) via temp + rename.
	OpWriteFile OpKind = "write-file"
	// OpRemoveFile removes a file; missing files are a no-op.
	OpRemoveFile OpKind = "remove-file"
)

// Op is one redo operation. Exactly the fields its kind needs are set;
// the zero values of the rest keep the journal compact.
type Op struct {
	Kind OpKind `json:"kind"`

	// Record fields (insert-record / remove-record).
	Hash        string          `json:"hash,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	Prefix      string          `json:"prefix,omitempty"`
	Explicit    bool            `json:"explicit,omitempty"`
	Origin      string          `json:"origin,omitempty"`
	SplicedFrom string          `json:"spliced_from,omitempty"`
	Lineage     []string        `json:"lineage,omitempty"`

	// Filesystem fields (link / unlink / write-file / remove-file /
	// remove-prefix uses Path too).
	Path    string `json:"path,omitempty"`
	Target  string `json:"target,omitempty"`
	Content []byte `json:"content,omitempty"`
}

// RecordMeta is the non-spec metadata of one store index record: how it
// was installed (explicitly or as a dependency), where the bytes came
// from, and — for spliced installs — what it was rewired from. It rides
// the journal so recovery rebuilds records with their full provenance.
type RecordMeta struct {
	Explicit bool
	Origin   string
	// SplicedFrom is the full hash of the install this record was rewired
	// from; empty for ordinary installs.
	SplicedFrom string
	// Lineage is the splice provenance chain, oldest first.
	Lineage []string
}

// Applier applies record operations to the store index on behalf of the
// transaction (the txn package knows nothing about spec decoding). Sync
// persists the index after a successful apply; implementations for which
// durability is the caller's business may make it a no-op.
type Applier interface {
	InsertRecord(hash string, specJSON []byte, prefix string, meta RecordMeta) error
	RemoveRecord(hash string) error
	Sync() error
}

// appendOp appends op's journal encoding: the JSON encoding/json gives an
// Op, compact, with the spec copied in verbatim rather than re-compacted.
// The spec must therefore be a JSON document (syntax.EncodeJSON's output).
func appendOp(dst []byte, op Op) []byte {
	dst = append(dst, `{"kind":`...)
	dst = jsonenc.String(dst, string(op.Kind))
	str := func(key, v string) {
		if v != "" {
			dst = append(dst, key...)
			dst = jsonenc.String(dst, v)
		}
	}
	str(`,"hash":`, op.Hash)
	if len(op.Spec) > 0 {
		dst = append(dst, `,"spec":`...)
		dst = append(dst, op.Spec...)
	}
	str(`,"prefix":`, op.Prefix)
	if op.Explicit {
		dst = append(dst, `,"explicit":true`...)
	}
	str(`,"origin":`, op.Origin)
	str(`,"spliced_from":`, op.SplicedFrom)
	if len(op.Lineage) > 0 {
		dst = append(dst, `,"lineage":`...)
		dst = jsonenc.Strings(dst, op.Lineage)
	}
	str(`,"path":`, op.Path)
	str(`,"target":`, op.Target)
	if len(op.Content) > 0 {
		dst = append(dst, `,"content":`...)
		dst = jsonenc.Bytes(dst, op.Content)
	}
	return append(dst, '}')
}

// journalDoc is the persisted form of one transaction; Recover decodes
// it with encoding/json.
type journalDoc struct {
	ID string `json:"id"`
	// Status is "active" until the commit point, "committed" after.
	Status string `json:"status"`
	// Created lists install prefixes this transaction brought into
	// existence — the undo log. Each is journaled before it is created.
	Created []string `json:"created,omitempty"`
	// Ops is the redo log, applied in order at commit and on recovery.
	Ops []Op `json:"ops,omitempty"`
}

const (
	statusActive    = "active"
	statusCommitted = "committed"
)

// txnSeq distinguishes journal files of concurrent transactions.
var txnSeq uint64

// Txn is one in-flight transaction. Methods are safe for concurrent use —
// a parallel DAG build stages into one shared transaction.
type Txn struct {
	fs   *simfs.FS
	dir  string // journal directory; "" disables the on-disk journal
	file string

	mu      sync.Mutex
	id      string
	status  string
	created []string // the undo log: prefixes journaled before creation
	ops     []Op     // the redo log
	// encOps holds the journal encodings of ops, comma-separated, each
	// appended once by Stage.
	encOps    []byte
	buf       []byte // flush scratch; the filesystem copies what it writes
	flushed   bool   // journal file exists on disk
	committed bool
	done      bool
	rollbacks []func() // in-memory undo hooks, run LIFO on Rollback
	onCommit  []func() // hooks run after a fully applied Commit
}

// Begin opens a transaction journaling into dir. An empty dir disables
// the on-disk journal (mutations still apply atomically at commit, but a
// crash cannot be recovered — callers with a store use its journal
// directory).
func Begin(fs *simfs.FS, dir string) *Txn {
	id := fmt.Sprintf("txn-%06d", atomic.AddUint64(&txnSeq, 1))
	t := &Txn{fs: fs, dir: dir, id: id, status: statusActive}
	if dir != "" {
		t.file = dir + "/" + id + ".json"
	}
	return t
}

// flushLocked persists the journal document (temp + rename): the header,
// the created prefixes and the ops as Stage encoded them. Callers hold
// t.mu.
func (t *Txn) flushLocked() error {
	if t.dir == "" {
		return nil
	}
	if !t.flushed {
		if err := t.fs.MkdirAll(t.dir); err != nil {
			return err
		}
	}
	b := append(t.buf[:0], `{"id":`...)
	b = jsonenc.String(b, t.id)
	b = append(b, `,"status":`...)
	b = jsonenc.String(b, t.status)
	if len(t.created) > 0 {
		b = append(b, `,"created":`...)
		b = jsonenc.Strings(b, t.created)
	}
	if len(t.ops) > 0 {
		b = append(b, `,"ops":[`...)
		b = append(b, t.encOps...)
		b = append(b, ']')
	}
	t.buf = append(b, '}')
	if err := WriteFileAtomic(t.fs, t.file, t.buf); err != nil {
		return err
	}
	t.flushed = true
	return nil
}

// RecordPrefix journals that prefix is about to be created, flushing the
// journal to disk *before* the caller writes anything there, so a crash
// at any later point lets recovery remove the partial tree. It must be
// called before the prefix's first byte.
func (t *Txn) RecordPrefix(prefix string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return fmt.Errorf("txn %s: record prefix on a finished transaction", t.id)
	}
	t.created = append(t.created, prefix)
	return t.flushLocked()
}

// Stage appends a redo operation and its journal encoding. Nothing
// touches disk until the next flush.
func (t *Txn) Stage(op Op) {
	t.mu.Lock()
	if len(t.ops) > 0 {
		t.encOps = append(t.encOps, ',')
	}
	t.encOps = appendOp(t.encOps, op)
	t.ops = append(t.ops, op)
	t.mu.Unlock()
}

// StageInsertRecord stages a store index insertion. specJSON is the
// record's syntax.EncodeJSON encoding; the journal carries it verbatim.
func (t *Txn) StageInsertRecord(hash string, specJSON []byte, prefix string, meta RecordMeta) {
	t.Stage(Op{Kind: OpInsertRecord, Hash: hash, Spec: specJSON,
		Prefix: prefix, Explicit: meta.Explicit, Origin: meta.Origin,
		SplicedFrom: meta.SplicedFrom, Lineage: meta.Lineage})
}

// StageRemoveRecord stages a store index removal.
func (t *Txn) StageRemoveRecord(hash string) {
	t.Stage(Op{Kind: OpRemoveRecord, Hash: hash})
}

// StageRemovePrefix stages deletion of an install prefix tree (applied
// only after the commit point — it cannot be undone).
func (t *Txn) StageRemovePrefix(prefix string) {
	t.Stage(Op{Kind: OpRemovePrefix, Path: prefix})
}

// StageLink stages creation (or atomic retargeting) of a symlink.
func (t *Txn) StageLink(path, target string) {
	t.Stage(Op{Kind: OpLink, Path: path, Target: target})
}

// StageUnlink stages removal of a symlink.
func (t *Txn) StageUnlink(path string) {
	t.Stage(Op{Kind: OpUnlink, Path: path})
}

// StageWriteFile stages an atomic file write (module files).
func (t *Txn) StageWriteFile(path string, content []byte) {
	t.Stage(Op{Kind: OpWriteFile, Path: path, Content: content})
}

// StageRemoveFile stages a file removal.
func (t *Txn) StageRemoveFile(path string) {
	t.Stage(Op{Kind: OpRemoveFile, Path: path})
}

// OnRollback registers an in-memory undo hook (e.g. removing an
// optimistically inserted index record). Hooks run LIFO on Rollback and
// never on Commit; a crashed process loses them by construction, which is
// fine — its in-memory state dies with it.
func (t *Txn) OnRollback(fn func()) {
	t.mu.Lock()
	t.rollbacks = append(t.rollbacks, fn)
	t.mu.Unlock()
}

// OnCommit registers a hook run after Commit fully applies (e.g. swapping
// a view manager's tracked link set).
func (t *Txn) OnCommit(fn func()) {
	t.mu.Lock()
	t.onCommit = append(t.onCommit, fn)
	t.mu.Unlock()
}

// Ops reports how many redo operations are staged.
func (t *Txn) Ops() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}

// CommitError reports a failure after the commit point: the journal is
// durable, so the transaction WILL complete — recovery replays it — but
// this process could not finish the apply.
type CommitError struct {
	ID  string
	Err error
}

func (e *CommitError) Error() string {
	return fmt.Sprintf("txn %s: committed but not fully applied (journal retained for recovery): %v", e.ID, e.Err)
}

func (e *CommitError) Unwrap() error { return e.Err }

// Commit makes the transaction durable and applies it: the redo log is
// flushed with status "committed" (the commit point — an atomic rename),
// every operation is applied in order, the applier syncs the index, and
// the journal is retired. An error before the commit point leaves the
// transaction active (the caller may Rollback); an error after it returns
// a *CommitError and retains the journal so recovery can finish the job.
func (t *Txn) Commit(ap Applier) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return fmt.Errorf("txn %s: commit on a finished transaction", t.id)
	}
	// The commit point. Empty transactions (no ops, nothing created, no
	// journal on disk) skip straight to the hooks.
	if len(t.ops) > 0 || t.flushed {
		t.status = statusCommitted
		if err := t.flushLocked(); err != nil {
			return err
		}
		t.committed = true
		for _, op := range t.ops {
			if err := applyOp(t.fs, ap, op); err != nil {
				return &CommitError{ID: t.id, Err: err}
			}
		}
		if ap != nil {
			if err := ap.Sync(); err != nil {
				return &CommitError{ID: t.id, Err: err}
			}
		}
		if t.dir != "" {
			if err := t.fs.Remove(t.file); err != nil {
				return &CommitError{ID: t.id, Err: err}
			}
		}
	}
	t.done = true
	for _, fn := range t.onCommit {
		fn()
	}
	return nil
}

// Rollback aborts an uncommitted transaction: in-memory undo hooks run
// LIFO, created prefixes are removed, and the journal is retired. Rolling
// back after the commit point is refused, with no side effects — the
// durable redo log has already won; recovery will finish applying it.
// After a successful Commit it is a no-op. Owners therefore defer it
// right after Begin and drop its error: the only error it returns
// follows a Commit that already reported a *CommitError.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	if t.committed {
		return fmt.Errorf("txn %s: cannot roll back past the commit point", t.id)
	}
	t.done = true
	for i := len(t.rollbacks) - 1; i >= 0; i-- {
		t.rollbacks[i]()
	}
	for _, prefix := range t.created {
		_ = t.fs.RemoveAll(prefix)
	}
	if t.flushed {
		_ = t.fs.Remove(t.file)
	}
	return nil
}

// applyOp applies one redo operation idempotently: replaying an already
// applied log must converge to the same state.
func applyOp(fs *simfs.FS, ap Applier, op Op) error {
	switch op.Kind {
	case OpInsertRecord:
		if ap == nil {
			return fmt.Errorf("txn: %s op needs an applier", op.Kind)
		}
		return ap.InsertRecord(op.Hash, op.Spec, op.Prefix, RecordMeta{
			Explicit: op.Explicit, Origin: op.Origin,
			SplicedFrom: op.SplicedFrom, Lineage: op.Lineage,
		})
	case OpRemoveRecord:
		if ap == nil {
			return fmt.Errorf("txn: %s op needs an applier", op.Kind)
		}
		return ap.RemoveRecord(op.Hash)
	case OpRemovePrefix:
		return fs.RemoveAll(op.Path)
	case OpLink:
		return atomicSymlink(fs, op.Target, op.Path)
	case OpUnlink, OpRemoveFile:
		if exists, isDir := fs.Stat(op.Path); !exists || isDir {
			return nil
		}
		return fs.Remove(op.Path)
	case OpWriteFile:
		if err := fs.MkdirAll(path.Dir(op.Path)); err != nil {
			return err
		}
		return WriteFileAtomic(fs, op.Path, op.Content)
	default:
		return fmt.Errorf("txn: unknown journal op %q", op.Kind)
	}
}

// tmpSeq disambiguates concurrent atomic writers targeting the same path.
var tmpSeq uint64

// WriteFileAtomic writes data to a temp path in the target's directory
// and renames it into place, so a crash or injected I/O failure mid-write
// never leaves a truncated file at the final path.
func WriteFileAtomic(fs *simfs.FS, p string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp.%d", p, atomic.AddUint64(&tmpSeq, 1))
	if err := fs.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := fs.Rename(tmp, p); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}

// atomicSymlink creates or retargets a symlink so readers observe either
// the old target or the new one, never a missing or partial link: the new
// link is created at a temp name and renamed over the final path.
func atomicSymlink(fs *simfs.FS, target, p string) error {
	if err := fs.MkdirAll(path.Dir(p)); err != nil {
		return err
	}
	// Idempotent fast path: the link already points where we want.
	if cur, err := fs.Readlink(p); err == nil && cur == target {
		return nil
	}
	tmp := fmt.Sprintf("%s.lnk.%d", p, atomic.AddUint64(&tmpSeq, 1))
	if err := fs.Symlink(target, tmp); err != nil {
		return err
	}
	if err := fs.Rename(tmp, p); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}
