package spec

import (
	"sort"

	"repro/internal/version"
)

// ConstraintKind classifies one reified input constraint of an abstract
// spec — the unit of blame for minimal unsat cores: the concretizer asks
// which of these, when dropped, make an UNSAT input satisfiable.
type ConstraintKind string

// Constraint kinds.
const (
	// ConstraintVersion is an @... clause.
	ConstraintVersion ConstraintKind = "version"
	// ConstraintCompiler is a %... clause.
	ConstraintCompiler ConstraintKind = "compiler"
	// ConstraintVariant is a +name/~name clause.
	ConstraintVariant ConstraintKind = "variant"
	// ConstraintArch is an =arch clause.
	ConstraintArch ConstraintKind = "arch"
	// ConstraintDep is a ^dep edge (the whole dependency subtree).
	ConstraintDep ConstraintKind = "dep"
)

// NodeConstraint names one removable constraint of an abstract spec: the
// node it attaches to, its kind, and enough detail to drop or render it.
type NodeConstraint struct {
	// Node is the name of the node carrying the constraint.
	Node string
	// Kind classifies the constraint.
	Kind ConstraintKind
	// Variant is the variant name for ConstraintVariant.
	Variant string
	// Dep is the child node name for ConstraintDep.
	Dep string
	// Detail is the human rendering ("hwloc2@1.7", "mpileaks%intel",
	// "callpath+debug", "libelf=bgq", "mpileaks ^openmpi").
	Detail string
}

// Constraints reifies every user-visible constraint of an abstract spec
// into a flat, deterministic list: per node the version, compiler, variant,
// and arch clauses, plus each dependency edge. The root node's name itself
// is not a constraint (there is no spec without it). Dependency edges are
// reported for the parent that carries them; a ^dep node's own clauses are
// reported against that node, so dropping an edge and dropping the dep's
// version pin are distinct facts.
func (s *Spec) Constraints() []NodeConstraint {
	var out []NodeConstraint
	for _, n := range s.Nodes() {
		if v := n.Versions.String(); v != "" && !n.Versions.IsAny() {
			out = append(out, NodeConstraint{
				Node: n.Name, Kind: ConstraintVersion,
				Detail: n.Name + "@" + v,
			})
		}
		if !n.Compiler.IsZero() {
			out = append(out, NodeConstraint{
				Node: n.Name, Kind: ConstraintCompiler,
				Detail: n.Name + "%" + n.Compiler.String(),
			})
		}
		names := make([]string, 0, len(n.Variants))
		for name := range n.Variants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, NodeConstraint{
				Node: n.Name, Kind: ConstraintVariant, Variant: name,
				Detail: n.Name + variantString(name, bool(n.Variants[name])),
			})
		}
		if n.Arch != "" {
			out = append(out, NodeConstraint{
				Node: n.Name, Kind: ConstraintArch,
				Detail: n.Name + "=" + n.Arch,
			})
		}
		for _, d := range n.deps {
			out = append(out, NodeConstraint{
				Node: n.Name, Kind: ConstraintDep, Dep: d.Name,
				Detail: n.Name + " ^" + d.Name,
			})
		}
	}
	return out
}

// DropConstraint returns a clone of the spec with one reified constraint
// removed. Dropping a dependency edge detaches the child from that parent;
// a child no longer reachable from the root drops out of the DAG entirely.
// Unknown constraints (a node or clause not present) drop nothing.
func (s *Spec) DropConstraint(c NodeConstraint) *Spec {
	out := s.Clone()
	node := out.Dep(c.Node)
	if c.Node == out.Name {
		node = out
	}
	if node == nil {
		return out
	}
	switch c.Kind {
	case ConstraintVersion:
		node.Versions = version.List{}
	case ConstraintCompiler:
		node.Compiler = Compiler{}
	case ConstraintVariant:
		delete(node.Variants, c.Variant)
	case ConstraintArch:
		node.Arch = ""
	case ConstraintDep:
		node.RemoveDep(c.Dep)
	}
	return out
}
