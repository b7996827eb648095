package spec

import (
	"crypto/sha256"
	"encoding/base32"
	"slices"
	"strings"
)

// DAGHash returns a short, stable identifier for the full configuration of
// a spec DAG. Like the paper's SHA-hashed directory component (§3.4.2), it
// covers every parameter of every node plus the edge structure, so two
// builds that differ only in, say, the version of one dependency hash
// differently, while dependency insertion order does not matter (the
// canonical string already sorts nodes and variants). DAGHash is a prefix
// of FullHash, so the two never disagree about identity.
func (s *Spec) DAGHash() string {
	return s.FullHash()[:8]
}

// FullHash is the full-length configuration hash, for provenance records
// and store prefixes. A concrete node's hash is computed once and
// memoized on that node (see Spec for the mutation contract); an abstract
// node is rehashed on every call.
func (s *Spec) FullHash() string {
	if m := s.memo.Load(); m != nil && m.hash != "" {
		return m.hash
	}
	var buf [2048]byte
	canon, concrete := s.appendCanonical(buf[:0], true)
	h := hashOf(canon)
	if concrete {
		// appendCanonical has memoized s's line.
		m := *s.memo.Load()
		m.hash = h
		s.memo.Store(&m)
	}
	return h
}

// Canonical returns the DAG's canonical serialization, the string that
// FullHash hashes: two DAGs have equal canonical forms exactly when they
// have equal FullHashes. A key built from it costs no SHA-256, which is
// why the concretizer's memo cache keys abstract inputs on it.
func (s *Spec) Canonical() string {
	var buf [256]byte
	canon, _ := s.appendCanonical(buf[:0], true)
	return string(canon)
}

var hashEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// hashOf renders the SHA-256 of a canonical DAG string in lower-case
// unpadded base32.
func hashOf(canon []byte) string {
	sum := sha256.Sum256(canon)
	var out [(8*sha256.Size + 4) / 5]byte
	hashEncoding.Encode(out[:], sum[:])
	for i, c := range out {
		if 'A' <= c && c <= 'Z' {
			out[i] = c + 'a' - 'A'
		}
	}
	return string(out[:])
}

// nodeMemo is what a concrete node memoizes: its canonical line and, once
// FullHash has been asked of it, its hash ("" until then). The line
// starts with the node as AppendNode renders it, node bytes long, so
// rendering a memoized node copies that part. A frozen memo belongs to a
// Template's node, which is shared and must never change.
type nodeMemo struct {
	line, hash string
	node       int
	frozen     bool
}

// forgetHash drops the node's memoized FullHash and canonical line; every
// mutator calls it on each node it changes, before changing it. On a
// frozen node it panics instead: the node is shared by every holder of a
// Template's root, so the change would reach all of them.
func (s *Spec) forgetHash() {
	if m := s.memo.Load(); m != nil && m.frozen {
		panic("spec: mutating node " + s.Name + " of a frozen DAG (a Template's root, such as a concretizer memo hit); Clone the DAG and change the clone")
	}
	s.memo.Store(nil)
}

// appendCanonical appends the DAG's canonical serialization to dst: one
// line per node, root first and the rest in name order, each the node in
// spec syntax followed by its explicit edges. (The plain String()
// rendering flattens dependencies, which would identify DAGs with equal
// node sets but different edge structure.) It also reports whether every
// node is concrete. With memo, a node's memoized line is reused, and the
// lines of a concrete DAG are memoized, so hashing every node of a DAG
// formats each node once.
func (s *Spec) appendCanonical(dst []byte, memo bool) ([]byte, bool) {
	var buf [inlineNodes]*Spec
	nodes := s.appendSortedNodes(buf[:0])
	concrete := true
	for _, n := range nodes {
		concrete = concrete && n.NodeConcrete()
	}
	for _, n := range nodes {
		if m := n.memo.Load(); memo && m != nil {
			dst = append(dst, m.line...)
			continue
		}
		start := len(dst)
		var node int
		dst, node = n.appendLine(dst)
		if memo && concrete {
			n.memo.Store(&nodeMemo{line: string(dst[start:]), node: node})
		}
	}
	return dst, concrete
}

// appendLine appends the node's canonical line, rendered afresh: the
// node in spec syntax with its external annotation, then its explicit
// edges. It also returns the length of the line's leading AppendNode
// part.
func (s *Spec) appendLine(dst []byte) ([]byte, int) {
	start := len(dst)
	dst = s.renderNode(dst)
	node := len(dst) - start
	dst = append(s.appendExternal(dst), " ->"...)
	for i, d := range s.deps {
		dst = append(append(dst, ' '), d.Name...)
		if t := s.depTypes[i]; t != DepDefault {
			dst = append(append(append(dst, '['), t.String()...), ']')
		}
	}
	return append(dst, '\n'), node
}

// appendSortedNodes appends the DAG's nodes to dst, root first and the
// rest sorted by name (names are unique within a DAG, so the order is
// total).
func (s *Spec) appendSortedNodes(dst []*Spec) []*Spec {
	if len(s.deps) == 0 {
		return append(dst, s) // a lone node: nothing to walk
	}
	start := len(dst)
	s.Traverse(func(n *Spec) bool {
		dst = append(dst, n)
		return true
	})
	slices.SortFunc(dst[start+1:], func(a, b *Spec) int { return strings.Compare(a.Name, b.Name) })
	return dst
}
