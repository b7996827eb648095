package spec

import (
	"crypto/sha256"
	"encoding/base32"
	"sort"
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
	canon, concrete := s.canonicalDAG()
	h := hashOf(canon)
	if concrete {
		s.hash.Store(&h)
	}
	return h
}

// hashOf renders the SHA-256 of a canonical DAG string in lower-case
// unpadded base32.
func hashOf(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	enc := base32.StdEncoding.WithPadding(base32.NoPadding)
	return strings.ToLower(enc.EncodeToString(sum[:]))
}

// forgetHash drops the node's memoized FullHash; every exported mutator
// calls it on each node it changes.
func (s *Spec) forgetHash() { s.hash.Store(nil) }

// canonicalDAG serializes the DAG with explicit edges: the plain String()
// rendering flattens dependencies, which would identify DAGs with equal
// node sets but different edge structure. It also reports whether every
// node is concrete (Concrete), from the same walk.
func (s *Spec) canonicalDAG() (string, bool) {
	var b strings.Builder
	concrete := true
	for _, n := range sortedNodes(s) {
		concrete = concrete && n.NodeConcrete()
		n.formatNode(&b)
		b.WriteString(" ->")
		for _, d := range n.DirectDeps() {
			b.WriteByte(' ')
			b.WriteString(d.Name)
			if t := n.EdgeType(d.Name); t != DepDefault {
				b.WriteByte('[')
				b.WriteString(t.String())
				b.WriteByte(']')
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), concrete
}

func sortedNodes(s *Spec) []*Spec {
	nodes := s.Nodes()
	// Keep root first; sort the rest by name for stability (names are
	// unique within a DAG, so the order is total).
	rest := nodes[1:]
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	return nodes
}
