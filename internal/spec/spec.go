// Package spec implements Spack-style build specifications (SC'15 §3.2):
// directed acyclic graphs of package nodes, each carrying the five
// configuration parameters of the paper — version, compiler, compiler
// version, variants, and target architecture — plus named dependencies.
//
// A Spec may be abstract (partially constrained, possibly naming virtual
// packages) or concrete (every parameter pinned, no virtuals). Constrain
// intersects two specs' constraints; Satisfies tests constraint entailment.
// Within one DAG a package name identifies a unique node (the paper's
// "single version per package" guarantee).
package spec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/version"
)

// VariantValue is the tri-state setting of a named build option: explicitly
// enabled, explicitly disabled, or (by absence from the map) unset.
type VariantValue bool

// DepType classifies a dependency edge: needed to build (tools like
// cmake), to link (libraries whose paths go into RPATHs), or to run.
// Absent edge-type metadata means the default build+link.
type DepType uint8

// Dependency edge classifications.
const (
	// DepBuild marks build-time-only tool dependencies.
	DepBuild DepType = 1 << iota
	// DepLink marks libraries linked into the result (RPATH targets).
	DepLink
	// DepRun marks runtime-only dependencies (PATH at run time).
	DepRun
)

// DepDefault is the edge type of ordinary library dependencies.
const DepDefault = DepBuild | DepLink

// String renders the type set ("build,link").
func (t DepType) String() string { return depTypeNames[t&(DepBuild|DepLink|DepRun)] }

var depTypeNames = [...]string{"none", "build", "link", "build,link", "run", "build,run", "link,run", "build,link,run"}

// Compiler constrains the toolchain used to build a node: a name like "gcc"
// and an optional version list. The zero Compiler is unconstrained.
type Compiler struct {
	Name     string
	Versions version.List
}

// IsZero reports whether no compiler constraint is present.
func (c Compiler) IsZero() bool { return c.Name == "" }

// Concrete reports whether the compiler is pinned to a single name+version.
func (c Compiler) Concrete() bool {
	if c.Name == "" {
		return false
	}
	_, ok := c.Versions.Concrete()
	return ok
}

// String renders the compiler constraint in spec syntax ("%gcc@4.7.3").
func (c Compiler) String() string {
	if c.Name == "" {
		return ""
	}
	if v := c.Versions.String(); v != "" {
		return c.Name + "@" + v
	}
	return c.Name
}

// AppendDir appends the compiler as a directory name: its name, then sep
// and its version list when it has one ("gcc-4.9.2" for sep '-'). Install
// layouts, module file names and the Lmod hierarchy ("gcc/4.9.2") all
// render a compiler this way.
func (c Compiler) AppendDir(dst []byte, sep byte) []byte {
	return appendVersions(append(dst, c.Name...), sep, c.Versions)
}

// Satisfies reports whether c (the more concrete constraint) entails o.
func (c Compiler) Satisfies(o Compiler) bool {
	if o.IsZero() {
		return true
	}
	if c.Name != o.Name {
		return false
	}
	return c.Versions.Satisfies(o.Versions)
}

// Intersect merges two compiler constraints, failing on conflicting names
// or disjoint version lists.
func (c Compiler) Intersect(o Compiler) (Compiler, error) {
	if c.IsZero() {
		return o, nil
	}
	if o.IsZero() {
		return c, nil
	}
	if c.Name != o.Name {
		return Compiler{}, &ConflictError{Field: "compiler", A: c.Name, B: o.Name}
	}
	vs, ok := c.Versions.Intersect(o.Versions)
	if !ok {
		return Compiler{}, &ConflictError{
			Field: "compiler version", A: c.Name + "@" + c.Versions.String(),
			B: o.Name + "@" + o.Versions.String(),
		}
	}
	return Compiler{Name: c.Name, Versions: vs}, nil
}

// ConflictError reports an inconsistency discovered while intersecting two
// specs, e.g. two different compilers requested for one package (§3.4).
type ConflictError struct {
	Package string // package whose node conflicted, if known
	Field   string // "version", "compiler", "variant foo", "architecture"
	A, B    string // the two irreconcilable constraints
}

func (e *ConflictError) Error() string {
	where := ""
	if e.Package != "" {
		where = " for package " + e.Package
	}
	return fmt.Sprintf("spec: conflicting %s%s: %q vs %q", e.Field, where, e.A, e.B)
}

// A Spec is one node of a build-specification DAG together with its
// dependency edges. The root Spec represents the package being requested.
// A node's edges are private: they are read through DirectDeps, DirectDep,
// EdgeType and EachDep, and written only through AddDep, AddDepTyped,
// SetDep, RemoveDep, SetDepType and Constrain.
//
// FullHash memoizes its result on a concrete node, and the node's
// canonical line (see appendCanonical) beside it; String and AppendNode
// copy a memoized node's rendering from that line. Every mutator drops
// the memos of each node it changes; with the edges private, no edge
// write can skip that. The hash also covers the sub-DAG below its node,
// and a change there drops no ancestor's memo, so do not mutate a
// concrete DAG once it has been hashed: derive a new one (Clone,
// SpliceDep) and change that instead. A Template's root, and so every
// memo hit of the concretizer's cache (concretize.Cache.Get), is shared
// by all its holders and frozen: every mutator called on one of its
// nodes panics, so the contract is checked there.
type Spec struct {
	Name      string
	Versions  version.List
	Compiler  Compiler
	Variants  map[string]VariantValue
	Arch      string
	Namespace string // repository namespace that provided the package, once resolved

	// deps are the direct dependency nodes sorted by name and depTypes
	// their edge types, index for index: one edge list (an edge's name is
	// its child's Name) kept in two columns so DirectDeps can hand out the
	// node column as stored.
	deps     []*Spec
	depTypes []DepType

	// External marks a node satisfied by a system install outside the store
	// (e.g. a vendor MPI); Path records where.
	External bool
	Path     string

	// memo holds a concrete node's canonical line and FullHash. It is
	// atomic because concurrent builders hash shared nodes of one DAG, and
	// it is one pointer so that a hashed copy carries it in one store.
	memo atomic.Pointer[nodeMemo]
}

// New returns an empty abstract spec for a package name.
func New(name string) *Spec {
	return &Spec{Name: name}
}

// SetVariant records an explicit +name or ~name setting.
func (s *Spec) SetVariant(name string, on bool) {
	s.forgetHash()
	if s.Variants == nil {
		s.Variants = make(map[string]VariantValue)
	}
	s.Variants[name] = VariantValue(on)
}

// Variant returns the setting of a variant and whether it is set.
func (s *Spec) Variant(name string) (bool, bool) {
	v, ok := s.Variants[name]
	return bool(v), ok
}

// LinkDeps returns the nodes reachable from s through link-type edges
// (excluding s), name-sorted: the set whose lib directories belong in
// RPATHs and -L flags (§3.5.2).
func (s *Spec) LinkDeps() []*Spec {
	seen := map[string]bool{s.Name: true}
	var out []*Spec
	var walk func(n *Spec)
	walk = func(n *Spec) {
		for i, d := range n.deps {
			if n.depTypes[i]&DepLink == 0 || seen[d.Name] {
				continue
			}
			seen[d.Name] = true
			out = append(out, d)
			walk(d)
		}
	}
	walk(s)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dep returns the named dependency node anywhere in s's DAG (not just
// direct edges), since a name identifies a unique node per DAG.
func (s *Spec) Dep(name string) *Spec {
	var found *Spec
	s.Traverse(func(n *Spec) bool {
		if n.Name == name {
			found = n
			return false
		}
		return true
	})
	return found
}

// FirstDep returns the first node below s, in Traverse order, whose name
// match accepts, or nil when none does or match is nil. Install layouts,
// the Lmod hierarchy and view templates find a DAG's MPI provider this
// way.
func (s *Spec) FirstDep(match func(name string) bool) *Spec {
	if match == nil {
		return nil
	}
	var found *Spec
	s.Traverse(func(n *Spec) bool {
		if n != s && match(n.Name) {
			found = n
			return false
		}
		return true
	})
	return found
}

// ConcreteVersion returns the pinned version of a concrete node.
func (s *Spec) ConcreteVersion() (version.Version, bool) {
	return s.Versions.Concrete()
}

// NodeConcrete reports whether this node (ignoring dependencies) has all
// five parameters pinned: version, compiler+version, architecture. Variants
// are considered concrete when present (unset variants are filled during
// concretization, so callers decide defaults before checking).
func (s *Spec) NodeConcrete() bool {
	if s.Name == "" {
		return false
	}
	if _, ok := s.Versions.Concrete(); !ok {
		return false
	}
	if s.External {
		return s.Arch != "" // externals carry no compiler of their own
	}
	return s.Compiler.Concrete() && s.Arch != ""
}

// Concrete reports whether every node in the DAG is concrete (§3.4's three
// criteria 1 and 3; criterion 2 — no virtuals — is checked by the
// concretizer, which knows the repository).
func (s *Spec) Concrete() bool {
	ok := true
	s.Traverse(func(n *Spec) bool {
		if !n.NodeConcrete() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// constrainNode intersects o's node-level constraints into s (not touching
// dependencies). It reports whether s changed, and drops s's memos before
// each change it makes (so a frozen s panics before it changes).
func (s *Spec) constrainNode(o *Spec) (bool, error) {
	changed := false
	if s.Name == "" && o.Name != "" {
		s.forgetHash()
		s.Name = o.Name
		changed = true
	} else if o.Name != "" && s.Name != o.Name {
		return false, &ConflictError{Field: "package name", A: s.Name, B: o.Name}
	}
	if !o.Versions.IsAny() {
		merged, ok := s.Versions.Intersect(o.Versions)
		if !ok {
			return false, &ConflictError{
				Package: s.Name, Field: "version",
				A: s.Versions.String(), B: o.Versions.String(),
			}
		}
		if merged.String() != s.Versions.String() {
			s.forgetHash()
			s.Versions = merged
			changed = true
		}
	}
	if !o.Compiler.IsZero() {
		merged, err := s.Compiler.Intersect(o.Compiler)
		if err != nil {
			if ce, ok := err.(*ConflictError); ok {
				ce.Package = s.Name
			}
			return false, err
		}
		if merged.String() != s.Compiler.String() {
			s.forgetHash()
			s.Compiler = merged
			changed = true
		}
	}
	// Check every variant before setting any: a conflict then names the
	// least conflicting variant and leaves s's variants alone, whatever
	// the map order.
	conflict := ""
	for name, val := range o.Variants {
		if cur, ok := s.Variants[name]; ok && cur != val && (conflict == "" || name < conflict) {
			conflict = name
		}
	}
	if conflict != "" {
		cur := bool(s.Variants[conflict])
		return false, &ConflictError{
			Package: s.Name, Field: "variant " + conflict,
			A: variantString(conflict, cur), B: variantString(conflict, !cur),
		}
	}
	for name, val := range o.Variants {
		if _, ok := s.Variants[name]; !ok {
			s.SetVariant(name, bool(val))
			changed = true
		}
	}
	if o.Arch != "" {
		if s.Arch == "" {
			s.forgetHash()
			s.Arch = o.Arch
			changed = true
		} else if s.Arch != o.Arch {
			return false, &ConflictError{Package: s.Name, Field: "architecture", A: s.Arch, B: o.Arch}
		}
	}
	if o.External {
		if !s.External {
			s.forgetHash()
			s.External = true
			s.Path = o.Path
			changed = true
		} else if o.Path != "" && s.Path != "" && o.Path != s.Path {
			return false, &ConflictError{Package: s.Name, Field: "external path", A: s.Path, B: o.Path}
		}
	}
	if o.Namespace != "" && s.Namespace == "" {
		s.forgetHash()
		s.Namespace = o.Namespace
	}
	return changed, nil
}

// Constrain merges all constraints of o into s, package by package across
// both DAGs (the paper's constraint-intersection step, Fig. 6). Dependency
// nodes are matched by name regardless of DAG position; an anonymous root
// of o matches s's root. A node of o that s lacks is cloned and attached
// under each of its parents in o that s has (nodes attached this way
// count), so a missing subtree is copied below a node both DAGs share.
// Nodes of o reachable only through nodes s lacks are ignored: so
// New("hdf5").Constrain of "mpich ^hwloc" changes nothing and returns nil.
// On conflict an error is returned and s may be partially updated.
func (s *Spec) Constrain(o *Spec) error {
	_, err := s.ConstrainChanged(o)
	return err
}

// ConstrainChanged is Constrain, also reporting whether anything changed —
// the concretizer's fixed-point loop uses this to detect quiescence.
func (s *Spec) ConstrainChanged(o *Spec) (bool, error) {
	if s.nodeLocal(o) {
		// Node-local: o can only touch s's root, and has no edges to copy.
		c, err := s.constrainNode(o)
		if c || err != nil {
			s.forgetHash()
		}
		return c, err
	}
	// Index every node of s's DAG by name.
	index := make(map[string]*Spec)
	s.Traverse(func(n *Spec) bool {
		index[n.Name] = n
		return true
	})
	// An anonymous constraint root (a `when=` predicate like "%gcc@:4")
	// applies to s's root node.
	nodeKey := func(on *Spec) string {
		if on == o && on.Name == "" {
			return s.Name
		}
		return on.Name
	}
	changed := false
	var werr error
	o.Traverse(func(on *Spec) bool {
		target, ok := index[nodeKey(on)]
		if !ok {
			return true // attached by the edge pass below, if o has an edge to it
		}
		c, err := target.constrainNode(on)
		if c || err != nil {
			target.forgetHash()
		}
		if err != nil {
			werr = err
			return false
		}
		changed = changed || c
		return true
	})
	if werr != nil {
		return changed, werr
	}
	// Edge pass: replicate o's edges into s, attaching clones of missing
	// nodes. Process o's nodes top-down so parents exist before children.
	for _, on := range o.Nodes() {
		parent, ok := index[nodeKey(on)]
		if !ok {
			continue // will be attached when its parent edge is processed
		}
		for i, od := range on.deps {
			oType := on.depTypes[i]
			if existing, ok := index[od.Name]; !ok {
				clone := od.copyNode(new(Spec))
				parent.SetDep(clone, oType)
				index[od.Name] = clone
				changed = true
			} else if j, has := parent.depIndex(od.Name); !has {
				parent.SetDep(existing, oType)
				changed = true
			} else if merged := parent.depTypes[j] | oType; merged != parent.depTypes[j] {
				parent.SetDepType(od.Name, merged)
				changed = true
			}
		}
	}
	return changed, nil
}

// nodeLocal reports whether constraint o reads or writes only s's root
// node: o has no dependencies and names s's package or none. For such an
// o, ConstrainChanged and Compatible need no index of s's DAG: the general
// path would look up only index[s.Name], which is s, and find no edges to
// copy.
func (s *Spec) nodeLocal(o *Spec) bool {
	return len(o.deps) == 0 && (o.Name == "" || o.Name == s.Name)
}

// copyNode copies a node's parameters, without its edges, into c and
// returns c.
func (s *Spec) copyNode(c *Spec) *Spec {
	c.Name, c.Versions, c.Compiler = s.Name, s.Versions, s.Compiler
	c.Arch, c.Namespace, c.External, c.Path = s.Arch, s.Namespace, s.External, s.Path
	if s.Variants != nil {
		c.Variants = make(map[string]VariantValue, len(s.Variants))
		for k, v := range s.Variants {
			c.Variants[k] = v
		}
	}
	return c
}

// satisfiesNode checks node-level entailment: does s's (tighter) constraint
// imply o's?
func (s *Spec) satisfiesNode(o *Spec) bool {
	if o.Name != "" && s.Name != o.Name {
		return false
	}
	if !s.Versions.Satisfies(o.Versions) {
		return false
	}
	if !s.Compiler.Satisfies(o.Compiler) {
		return false
	}
	for name, want := range o.Variants {
		got, ok := s.Variants[name]
		if !ok || got != want {
			return false
		}
	}
	if o.Arch != "" && s.Arch != o.Arch {
		return false
	}
	return true
}

// Satisfies reports whether s meets every constraint expressed by o: the
// root nodes must be compatible and, for each named node in o's DAG, s's
// DAG must contain a node of the same name whose constraints entail it.
// This is the operator behind `when=` predicates and install-time queries
// (§3.2.4).
func (s *Spec) Satisfies(o *Spec) bool {
	if !s.satisfiesNode(o) {
		return false
	}
	if len(o.deps) == 0 {
		return true // the index below is read only for o's other nodes
	}
	index := make(map[string]*Spec)
	s.Traverse(func(n *Spec) bool {
		index[n.Name] = n
		return true
	})
	ok := true
	o.Traverse(func(on *Spec) bool {
		if on == o {
			return true // root handled above
		}
		sn, has := index[on.Name]
		if !has || !sn.satisfiesNode(on) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Compatible reports whether the constraints of s and o can hold at once
// (their intersection is satisfiable). Unlike Satisfies it is symmetric.
func (s *Spec) Compatible(o *Spec) bool {
	if s.nodeLocal(o) {
		_, err := s.copyNode(new(Spec)).constrainNode(o)
		return err == nil
	}
	return s.Clone().Constrain(o) == nil
}

func variantString(name string, on bool) string {
	if on {
		return "+" + name
	}
	return "~" + name
}

// formatNode renders one node's constraints in spec syntax, with the
// external annotation.
func (s *Spec) formatNode(b *strings.Builder) {
	var buf [128]byte
	b.Write(s.appendNode(buf[:0], true))
}

// AppendNode appends the node's own constraints in spec syntax to dst:
// the node as String renders it, without dependency clauses and without
// the external annotation, which does not parse. Spec JSON records a node
// this way and carries the external path separately.
func (s *Spec) AppendNode(dst []byte) []byte { return s.appendNode(dst, false) }

func (s *Spec) appendNode(dst []byte, external bool) []byte {
	if m := s.memo.Load(); m != nil {
		dst = append(dst, m.line[:m.node]...)
	} else {
		dst = s.renderNode(dst)
	}
	if external {
		dst = s.appendExternal(dst)
	}
	return dst
}

// renderNode renders AppendNode's bytes afresh, reading no memo.
func (s *Spec) renderNode(dst []byte) []byte {
	dst = appendVersions(append(dst, s.Name...), '@', s.Versions)
	if s.Compiler.Name != "" {
		dst = append(dst, '%')
		dst = appendVersions(append(dst, s.Compiler.Name...), '@', s.Compiler.Versions)
	}
	dst = s.AppendVariants(dst)
	if s.Arch != "" {
		dst = append(dst, '=')
		dst = append(dst, s.Arch...)
	}
	return dst
}

// appendExternal appends the external annotation (" [external:path]")
// of an external node, and nothing for any other.
func (s *Spec) appendExternal(dst []byte) []byte {
	if !s.External {
		return dst
	}
	dst = append(dst, " [external"...)
	if s.Path != "" {
		dst = append(dst, ':')
		dst = append(dst, s.Path...)
	}
	return append(dst, ']')
}

// AppendVariants appends the node's variant settings in name order, each
// as its sigil and name ("+debug~shared"). Spec syntax and the install
// layouts share this rendering.
func (s *Spec) AppendVariants(dst []byte) []byte {
	var arr [8]string
	names := arr[:0]
	for n := range s.Variants {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if s.Variants[n] {
			dst = append(dst, '+')
		} else {
			dst = append(dst, '~')
		}
		dst = append(dst, n...)
	}
	return dst
}

// appendVersions appends sep and l's rendering, or nothing for an empty l.
func appendVersions(dst []byte, sep byte, l version.List) []byte {
	n := len(dst)
	if dst = l.AppendTo(append(dst, sep)); len(dst) == n+1 {
		return dst[:n]
	}
	return dst
}

// String renders the full spec in the paper's command-line syntax: the root
// node followed by ^dep clauses for every other node of the DAG, in
// dependency-name order. The rendering is canonical: equal DAGs produce
// equal strings.
func (s *Spec) String() string {
	var buf [4096]byte
	dst := s.appendNode(buf[:0], true)
	var nodes [inlineNodes]*Spec
	for _, n := range s.appendSortedNodes(nodes[:0])[1:] {
		dst = n.appendNode(append(dst, " ^"...), true)
	}
	return string(dst)
}

// TreeString renders the DAG as an indented tree for human inspection, the
// way `spack spec` prints concretized output (Fig. 7). Non-default
// dependency edges are annotated with their type ("[build]").
func (s *Spec) TreeString() string {
	var b strings.Builder
	seen := make(map[string]bool)
	var walk func(n *Spec, depth int, edge DepType)
	walk = func(n *Spec, depth int, edge DepType) {
		for i := 0; i < depth; i++ {
			b.WriteString("    ")
		}
		if depth > 0 {
			b.WriteByte('^')
		}
		n.formatNode(&b)
		if depth > 0 && edge != DepDefault {
			b.WriteString(" [")
			b.WriteString(edge.String())
			b.WriteByte(']')
		}
		b.WriteByte('\n')
		if seen[n.Name] {
			return
		}
		seen[n.Name] = true
		for i, d := range n.deps {
			walk(d, depth+1, n.depTypes[i])
		}
	}
	walk(s, 0, DepDefault)
	return b.String()
}
