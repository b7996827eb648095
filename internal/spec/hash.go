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
// and as the spec component of concretizer memo-cache keys. A concrete
// node's hash is computed once and memoized on that node (see Spec for
// the mutation contract); an abstract node is rehashed on every call.
func (s *Spec) FullHash() string {
	if h := s.hash.Load(); h != nil {
		return *h
	}
	var buf [2048]byte
	canon, concrete := s.appendCanonical(buf[:0], true)
	h := hashOf(canon)
	if concrete {
		s.hash.Store(&h)
	}
	return h
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

// forgetHash drops the node's memoized FullHash and canonical line; every
// mutator calls it on each node it changes.
func (s *Spec) forgetHash() {
	s.hash.Store(nil)
	s.line.Store(nil)
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
		if l := n.line.Load(); memo && l != nil {
			dst = append(dst, *l...)
			continue
		}
		start := len(dst)
		dst = append(n.appendNode(dst, true), " ->"...)
		for i, d := range n.deps {
			dst = append(append(dst, ' '), d.Name...)
			if t := n.depTypes[i]; t != DepDefault {
				dst = append(append(append(dst, '['), t.String()...), ']')
			}
		}
		dst = append(dst, '\n')
		if memo && concrete {
			l := string(dst[start:])
			n.line.Store(&l)
		}
	}
	return dst, concrete
}

// appendSortedNodes appends the DAG's nodes to dst, root first and the
// rest sorted by name (names are unique within a DAG, so the order is
// total).
func (s *Spec) appendSortedNodes(dst []*Spec) []*Spec {
	start := len(dst)
	s.Traverse(func(n *Spec) bool {
		dst = append(dst, n)
		return true
	})
	slices.SortFunc(dst[start+1:], func(a, b *Spec) int { return strings.Compare(a.Name, b.Name) })
	return dst
}
