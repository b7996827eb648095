package concretize

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/concretize/solve"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/version"
)

// resolver is one propagation run: the engine layer of the v2 pipeline.
// It owns all per-run state (the forced provider assignment from the
// solver's search, the active reuse pins, and the pin-application record),
// so concurrent Concretize calls on one Concretizer never share mutable
// engine state — ConcretizeAll's worker pool relies on this.
type resolver struct {
	c *Concretizer
	// forced maps virtual names to the provider package that must be
	// chosen — the solver core's current search assignment.
	forced map[string]string
	// pins maps package names to reuse carrier specs (the node attributes
	// of an installed or cached concrete spec). Compatible pins are
	// constrained in before version concretization; incompatible ones are
	// dropped silently.
	pins map[string]*spec.Spec
	// pinApplied records pins already attempted, so a pin is constrained
	// in at most once per run.
	pinApplied map[string]bool

	// dag is the DAG's nodes in pre-order (root.Nodes()) with their
	// package definitions, and byName the same entries sorted by name.
	// The phases of a pass share them; dagValid is cleared whenever an
	// edge is attached or rewired, and snapshot rebuilds them on next use.
	dag, byName []dagNode
	dagValid    bool
	// directives counts the dependency directives of the packages in dag;
	// run derives its pass bound from it.
	directives int
	// stack is inheritCompilers' walk, kept to reuse its storage.
	stack []inhFrame
}

// dagNode is one node of the DAG under concretization with the package
// definition its name resolves to (nil for a virtual node).
type dagNode struct {
	n   *spec.Spec
	def *pkg.Package
}

// snapshot returns the DAG's nodes in pre-order, rebuilding r.dag and
// r.byName if the structure changed since they were taken.
func (r *resolver) snapshot(root *spec.Spec) []dagNode {
	if r.dagValid {
		return r.dag
	}
	r.dag = r.dag[:0]
	r.directives = 0
	root.Traverse(func(n *spec.Spec) bool {
		def, _, _ := r.c.Path.Get(n.Name)
		r.dag = append(r.dag, dagNode{n: n, def: def})
		if def != nil {
			r.directives += len(def.Dependencies)
		}
		return true
	})
	r.byName = append(r.byName[:0], r.dag...)
	slices.SortFunc(r.byName, func(a, b dagNode) int { return strings.Compare(a.n.Name, b.n.Name) })
	r.dagValid = true
	return r.dag
}

// findByName looks a name up in r.byName: its position, and whether a node
// of that name is there.
func (r *resolver) findByName(name string) (int, bool) {
	return slices.BinarySearchFunc(r.byName, name, func(e dagNode, name string) int {
		return strings.Compare(e.n.Name, name)
	})
}

// run repeats the Fig. 6 cycle to a fixed point: every pass visits every
// node, and the loop stops after the first pass that changes nothing.
//
// A pass visits the nodes it attaches (applyPackageConstraints works
// through a FIFO), so one pass closes the DAG whatever its depth: a chain
// of any length takes two passes, one that attaches and pins every node
// and one that changes nothing. More passes come only from interplay
// between phases: a when= condition that holds once a node's parameters
// are pinned, or a provider that replaces a virtual node and brings
// dependencies of its own. The loop's safety bound is derived from the
// DAG as it stands. Propagation is monotone: constraints only narrow, nodes and
// edges are only added (a virtual node is replaced by its provider in the
// pass that attached it, and never returns), and a node's version,
// compiler and variants are all pinned on one visit. So a pass that
// changes anything does at least one thing that cannot happen again:
//   - a node joins, gets its namespace, its architecture, an inherited
//     compiler, or its pinned parameters: at most five events per node;
//   - a dependency directive of a node first changes the DAG (attaches
//     an edge or narrows its target); intersecting the same constraint
//     again changes nothing;
//   - a directive sets an undeclared variant, which fails the next pass.
//
// That is at most 5*nodes + directives + 1 changing passes, and the pass
// after the last of them changes nothing and ends the loop: a correct run
// takes at most 5*nodes + directives + 2 passes. Past that bound the
// engine is at fault, and the run fails rather than spin.
func (r *resolver) run(abstract *spec.Spec) (*spec.Spec, error) {
	root := abstract.Clone()
	for iter := 0; ; iter++ {
		if bound := 5*len(r.snapshot(root)) + r.directives + 2; iter >= bound {
			return nil, &Error{Spec: abstract.String(),
				Err: fmt.Errorf("no fixed point after %d iterations", iter)}
		}
		r.c.Stats.iterations.Add(1)

		changed, err := r.applyPackageConstraints(root)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}

		// Parameters before virtual resolution: provider choice is greedy
		// and irrevocable, so it should see the architecture and compiler
		// context (a vendor MPI conditioned on "=bgq" must not be chosen
		// for a Linux build).
		ch, err := r.concretizeParams(root)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}
		changed = changed || ch

		ch, err = r.resolveVirtuals(root)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}
		if !changed && !ch {
			break // a quiescent pass: fixed point
		}
	}
	return r.decode(abstract, root)
}

// applyPackageConstraints merges directive constraints from package files
// into the DAG: for every resolved (non-virtual) node, the dependencies
// active under its current configuration are intersected in, with new edges
// attached (Fig. 6's "Intersect Constraints").
func (r *resolver) applyPackageConstraints(root *spec.Spec) (bool, error) {
	changed := false
	// The loop works through a FIFO that starts as the snapshot taken
	// before it attaches anything. Every node it attaches, with any nodes
	// below it, joins r.byName (and so is found by name) and the back of
	// the queue (join), so one pass closes the DAG whatever its depth. The
	// queue is r.dag itself: attaching makes it stale, and snapshot
	// rebuilds it in pre-order on next use.
	// Directive specs are read in place: a definition is shared by every
	// solve, so only a node attached to the DAG is cloned.
	r.snapshot(root)
	for i := 0; i < len(r.dag); i++ {
		n, def := r.dag[i].n, r.dag[i].def
		if def == nil {
			continue // virtual; resolved separately
		}
		if n.Namespace == "" {
			_, n.Namespace, _ = r.c.Path.Get(n.Name)
			changed = true
		}
		for i := range def.Dependencies {
			d := &def.Dependencies[i]
			if !d.ActiveFor(n) {
				continue
			}
			depName := d.Constraint.Name
			edgeType := spec.DepDefault
			if d.BuildOnly {
				edgeType = spec.DepBuild
			}
			// A virtual dependency already satisfied by a provider in the
			// DAG attaches to that provider rather than re-creating the
			// virtual node (otherwise resolution would never converge).
			if prov, found, err := r.dagProviderFor(d.Constraint); err != nil {
				return changed, err
			} else if found {
				if n.DirectDep(prov.Name) == nil {
					n.SetDep(prov, edgeType)
					r.dagValid = false
					changed = true
				}
				continue
			}
			if at, ok := r.findByName(depName); ok {
				existing := r.byName[at].n
				ch, err := existing.ConstrainChanged(d.Constraint)
				if err != nil {
					return changed, err
				}
				if ch {
					changed = true
					if len(d.Constraint.DirectDeps()) > 0 {
						r.join(existing) // it may have attached nodes below existing
					}
				}
				if n.DirectDep(depName) == nil {
					n.SetDep(existing, edgeType)
					r.dagValid = false
					changed = true
				}
			} else {
				node := d.Constraint.Clone()
				n.SetDep(node, edgeType)
				r.join(node)
				changed = true
			}
		}
	}
	return changed, nil
}

// join records the nodes of a sub-DAG just linked into the DAG: each one
// whose name is not yet in r.byName joins it and the back of the pass's
// queue (r.dag), as snapshot would list it. A directive's constraint can
// carry dependencies of its own ("bbb ^ddd@1.0"), so the sub-DAG is walked
// whole: a node visited later in the pass then finds ddd@1.0 by name
// instead of attaching a fresh ddd.
func (r *resolver) join(sub *spec.Spec) {
	sub.Traverse(func(n *spec.Spec) bool {
		if at, ok := r.findByName(n.Name); !ok {
			def, _, _ := r.c.Path.Get(n.Name)
			r.byName = slices.Insert(r.byName, at, dagNode{n: n, def: def})
			r.dag = append(r.dag, dagNode{n: n, def: def})
		}
		return true
	})
	r.dagValid = false
}

// dagProviderFor looks for a node already in the DAG that provides a
// virtual dependency constraint, scanning r.byName in order. If nodes
// provide the interface name but none compatibly, that is a conflict: one
// DAG must not mix two providers of the same interface (the
// ABI-consistency guarantee of §3.2.1).
func (r *resolver) dagProviderFor(dep *spec.Spec) (*spec.Spec, bool, error) {
	if !r.c.Path.IsVirtual(dep.Name) {
		return nil, false, nil
	}
	sawProvider := false
	for _, dn := range r.byName {
		n, def := dn.n, dn.def
		if def == nil {
			continue
		}
		providesName := false
		for _, pr := range def.Provides {
			if pr.Virtual.Name != dep.Name {
				continue
			}
			providesName = true
			if !pr.Virtual.Compatible(dep) {
				continue
			}
			if pr.When != nil && !n.Compatible(pr.When) {
				continue
			}
			return n, true, nil
		}
		sawProvider = sawProvider || providesName
	}
	if sawProvider {
		return nil, false, &NoProviderError{
			Virtual: dep.String(),
			Detail:  " (a provider of this interface is already in the DAG but is incompatible)",
		}
	}
	return nil, false, nil
}

// resolveVirtuals replaces virtual nodes with providers (Fig. 6's "Resolve
// Virtual Deps"). If a package already in the DAG provides the interface,
// it is reused (this is how `^mpich` forces the MPI choice); otherwise the
// best provider under the solver's criteria ranking is selected greedily.
func (r *resolver) resolveVirtuals(root *spec.Spec) (bool, error) {
	changed := false
	for {
		vnode := r.findVirtualNode(r.snapshot(root))
		if vnode == nil {
			return changed, nil
		}
		r.c.Stats.virtualsSeen.Add(1)
		provider, err := r.chooseProvider(vnode)
		if err != nil {
			return changed, err
		}
		r.replaceNode(root, vnode, provider)
		r.dagValid = false
		changed = true
	}
}

// findVirtualNode returns the first virtual node of the DAG in pre-order,
// or nil.
func (r *resolver) findVirtualNode(nodes []dagNode) *spec.Spec {
	for _, dn := range nodes {
		if dn.def == nil && r.c.Path.IsVirtual(dn.n.Name) {
			return dn.n
		}
	}
	return nil
}

// providerFact reifies one candidate into the solver's ranking attributes:
// configured policy rank, and whether the provider package appears in the
// reuse candidate set (installed or cached), which outranks policy under
// the criteria.
func (r *resolver) providerFact(virtual, provider string) solve.Provider {
	_, reused := r.pins[provider]
	return solve.Provider{
		Name:   provider,
		Rank:   r.c.Config.ProviderRank(virtual, provider),
		Reused: reused,
	}
}

// chooseProvider selects the provider node for a virtual constraint. The
// returned node is either an existing DAG node or a fresh one constrained
// by the provides-when condition. r.byName must be current.
func (r *resolver) chooseProvider(vnode *spec.Spec) (*spec.Spec, error) {
	// 1. A DAG node that provides the interface wins outright.
	if inDAG, found, err := r.dagProviderFor(vnode); err != nil {
		return nil, err
	} else if found {
		if err := r.constrainProviderForVirtual(inDAG, vnode); err != nil {
			return nil, err
		}
		return inDAG, nil
	}

	// 2. Otherwise rank the repository's candidates by the solver's
	// criteria (reused providers, then configured preference, then name).
	cands := r.c.Path.ProvidersFor(vnode)
	if len(cands) == 0 {
		return nil, &NoProviderError{Virtual: vnode.String()}
	}
	if want, ok := r.forced[vnode.Name]; ok {
		var filtered []repo.Provider
		for _, p := range cands {
			if p.Package.Name == want {
				filtered = append(filtered, p)
			}
		}
		if len(filtered) == 0 {
			return nil, &NoProviderError{Virtual: vnode.String(),
				Detail: fmt.Sprintf(" (forced provider %s does not qualify)", want)}
		}
		cands = filtered
	}
	sort.SliceStable(cands, func(i, j int) bool {
		// Equal names compare 0, preserving ProvidersFor's order within one
		// package (conditioned entries providing newer interfaces first).
		return solve.CompareProviders(
			r.providerFact(vnode.Name, cands[i].Package.Name),
			r.providerFact(vnode.Name, cands[j].Package.Name)) < 0
	})

	// Greedy: take the first candidate whose when-condition and the
	// virtual node's non-version constraints are mutually consistent.
	// Inconsistent candidates (e.g. a vendor MPI conditioned on another
	// architecture) are skipped at choice time; once a candidate is taken
	// the engine never revisits the decision (§3.4) — revisiting is the
	// solver core's job.
	var lastErr error
	for _, cand := range cands {
		node := spec.New(cand.Package.Name)
		if cand.When != nil {
			if err := node.Constrain(cand.When); err != nil {
				lastErr = err
				continue
			}
		}
		if err := r.constrainProviderForVirtual(node, vnode); err != nil {
			lastErr = err
			continue
		}
		return node, nil
	}
	if lastErr == nil {
		lastErr = &NoProviderError{Virtual: vnode.String()}
	}
	return nil, &NoProviderError{Virtual: vnode.String(),
		Detail: fmt.Sprintf(" (%d candidates, none consistent: %v)", len(cands), lastErr)}
}

// constrainProviderForVirtual transfers the non-version constraints of the
// virtual node (compiler, variants, arch) onto the provider; interface
// version constraints describe the virtual, not the provider, and are
// checked against provides directives instead.
func (r *resolver) constrainProviderForVirtual(provider, vnode *spec.Spec) error {
	carrier := spec.New(provider.Name)
	carrier.Compiler = vnode.Compiler
	carrier.Arch = vnode.Arch
	for k, v := range vnode.Variants {
		carrier.SetVariant(k, bool(v))
	}
	return provider.Constrain(carrier)
}

// replaceNode rewires every edge pointing at old to point at repl. When the
// DAG already holds a node of repl's name, chooseProvider returned that
// node, so the DAG keeps one node per name.
func (r *resolver) replaceNode(root, old, repl *spec.Spec) {
	root.Traverse(func(n *spec.Spec) bool {
		if n.DirectDep(old.Name) == old {
			t := n.EdgeType(old.Name)
			n.RemoveDep(old.Name)
			n.SetDep(repl, t)
		}
		return true
	})
	// The virtual node's own dependencies (rare) migrate to the provider.
	for _, d := range old.DirectDeps() {
		if repl.DirectDep(d.Name) == nil {
			repl.SetDep(d, spec.DepDefault)
		}
	}
}

// concretizeParams pins the five parameters of every resolved node
// (Fig. 6's "Concretize Parameters"): architecture, externals, reuse pins,
// version, compiler, variants — consulting preferences so sites make
// "consistent, repeatable choices" (§3.4.4).
func (r *resolver) concretizeParams(root *spec.Spec) (bool, error) {
	changed := false

	// Architecture: the root adopts the default; dependencies inherit the
	// root's platform.
	if root.Arch == "" {
		root.Arch = r.c.Config.DefaultArch()
		changed = true
	}
	// Nothing below attaches an edge before the last loop, which walks the
	// snapshot taken here even if an external's constraint attaches one.
	nodes := r.snapshot(root)
	for _, dn := range nodes {
		n := dn.n
		if n.Arch == "" {
			n.Arch = root.Arch
			changed = true
		}
	}

	// Compiler inheritance: children without a constraint build with their
	// parent's compiler, so one toolchain is used consistently across a DAG
	// unless overridden per node.
	changed = r.inheritCompilers(nodes) || changed

	for _, dn := range nodes {
		n, def := dn.n, dn.def
		if def == nil {
			continue // unresolved virtual: next iteration
		}

		// Externals: a matching registration satisfies the node without a
		// store build (§4.4's vendor MPI configuration).
		if !n.External {
			if ext, ok := r.c.Config.ExternalFor(n, n.Arch); ok {
				if err := n.Constrain(ext.Constraint); err != nil {
					return changed, err
				}
				if len(ext.Constraint.DirectDeps()) > 0 {
					r.dagValid = false // it may have attached nodes below n
				}
				n.External = true
				n.Path = ext.Path
				changed = true
			}
		}

		// Reuse: an installed or cached configuration of this package is
		// constrained in when compatible with everything known so far, so
		// its exact version/compiler/variants — and therefore its full
		// hash — carry over. An incompatible pin is dropped silently: the
		// criteria put satisfiability above reuse.
		changed = r.applyReusePin(n) || changed

		ch, err := r.concretizeVersion(n, def)
		if err != nil {
			return changed, err
		}
		changed = changed || ch

		if !n.External {
			ch, err = r.concretizeCompiler(n, def.FeaturesFor(n))
			if err != nil {
				return changed, err
			}
			changed = changed || ch
		}

		ch, err = r.concretizeVariants(n, def)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	return changed, nil
}

// applyReusePin constrains a node with its reuse carrier, at most once per
// run. Incompatible carriers are skipped — never an error: reuse must fall
// back to a clean solve, not poison it.
func (r *resolver) applyReusePin(n *spec.Spec) bool {
	pin, ok := r.pins[n.Name]
	if !ok || r.pinApplied[n.Name] || n.External {
		return false
	}
	r.pinApplied[n.Name] = true
	if !n.Compatible(pin) {
		return false
	}
	ch, err := n.ConstrainChanged(pin)
	return err == nil && ch // an error is a racy incompatibility: a skipped pin
}

// inhFrame is one node on inheritCompilers' walk: the compiler and
// architecture its dependencies inherit, and the index of its next edge.
type inhFrame struct {
	n    *spec.Spec
	comp spec.Compiler
	arch string
	next int
}

// frameFor returns n's frame given what n inherited: its own compiler
// (with its architecture) once it has one, else the inherited compiler on
// n's architecture when n has one.
func frameFor(n *spec.Spec, comp spec.Compiler, arch string) inhFrame {
	if !n.Compiler.IsZero() {
		return inhFrame{n: n, comp: n.Compiler, arch: n.Arch}
	}
	if n.Arch != "" {
		arch = n.Arch
	}
	return inhFrame{n: n, comp: comp, arch: arch}
}

// inheritCompilers propagates compiler constraints from parents to
// children that have none, depth first from the root with dependencies in
// name order. Every edge offers the parent's compiler, but a node's own
// dependencies are walked once, from its first parent. nodes is the DAG in
// pre-order, the order in which this walk first reaches each node, so a
// node is reached for the first time exactly when it is the next one in
// nodes. Returns whether anything changed.
func (r *resolver) inheritCompilers(nodes []dagNode) bool {
	changed := false
	stack := append(r.stack[:0], frameFor(nodes[0].n, spec.Compiler{}, ""))
	reached := 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		deps := top.n.DirectDeps()
		if top.next == len(deps) {
			stack = stack[:len(stack)-1]
			continue
		}
		d := deps[top.next]
		top.next++
		// A node on a different architecture than its parent (the
		// front-end/back-end split of §3.2.3) must not inherit the
		// parent's toolchain: cross toolchains differ per platform, so the
		// node picks its own arch-appropriate compiler instead.
		sameArch := top.arch == "" || d.Arch == "" || d.Arch == top.arch
		if d.Compiler.IsZero() && !top.comp.IsZero() && !d.External && sameArch {
			d.Compiler = top.comp
			changed = true
		}
		if reached == len(nodes) || nodes[reached].n != d {
			continue // reached before
		}
		reached++
		stack = append(stack, frameFor(d, top.comp, top.arch))
	}
	r.stack = stack
	return changed
}

// concretizeVersion pins a node's version: the highest known version
// admitted by the constraints, preferring configured site versions; an
// exact unknown version is adopted for URL extrapolation (§3.2.3).
func (r *resolver) concretizeVersion(n *spec.Spec, def *pkg.Package) (bool, error) {
	if _, ok := n.Versions.Concrete(); ok {
		return false, nil
	}
	known := def.KnownVersions()

	// Site/user preferred versions first.
	if pref, ok := r.c.Config.PreferredVersion(n.Name); ok {
		if merged, ok := n.Versions.Intersect(pref); ok {
			if v, found := merged.Highest(known); found {
				n.Versions = version.ExactList(v)
				return true, nil
			}
		}
	}
	if v, found := n.Versions.Highest(known); found {
		n.Versions = version.ExactList(v)
		return true, nil
	}
	// An exact version we don't know: trust the user and extrapolate.
	ranges := n.Versions.Ranges()
	if len(ranges) == 1 && ranges[0].IsSingle() {
		n.Versions = version.ExactList(ranges[0].Lo)
		return true, nil
	}
	var knownStrs []string
	for _, v := range known {
		knownStrs = append(knownStrs, v.String())
	}
	return false, &NoVersionError{Package: n.Name, Constraint: n.Versions.String(), Known: knownStrs}
}

// concretizeCompiler pins a node's compiler to a registered toolchain
// admitted by the node constraint, the package's required compiler
// features, and preference order.
func (r *resolver) concretizeCompiler(n *spec.Spec, features []string) (bool, error) {
	// requireFeatures filters toolchains by the package's needs, naming
	// the first missing feature on total failure.
	requireFeatures := func(in []compiler.Toolchain) ([]compiler.Toolchain, string) {
		if len(features) == 0 {
			return in, ""
		}
		var out []compiler.Toolchain
		for _, tc := range in {
			if tc.HasFeatures(features) {
				out = append(out, tc)
			}
		}
		if len(out) == 0 && len(in) > 0 {
			for _, f := range features {
				ok := false
				for _, tc := range in {
					if tc.HasFeature(f) {
						ok = true
						break
					}
				}
				if !ok {
					return nil, f
				}
			}
			return nil, features[0]
		}
		return out, ""
	}

	if n.Compiler.Concrete() {
		// Verify the pinned compiler exists for this arch and has the
		// required features; Find runs only to name what is missing.
		if r.c.Registry.Has(n.Compiler, n.Arch, features) {
			return false, nil
		}
		found := r.c.Registry.Find(n.Compiler, n.Arch)
		if len(found) == 0 {
			return false, &NoCompilerError{Package: n.Name, Constraint: n.Compiler.String(), Arch: n.Arch}
		}
		if ok, missing := requireFeatures(found); len(ok) == 0 {
			return false, &MissingFeatureError{Package: n.Name, Feature: missing,
				Compiler: n.Compiler.String(), Arch: n.Arch}
		}
		return false, nil
	}
	var cands []compiler.Toolchain
	if !n.Compiler.IsZero() {
		cands = r.c.Registry.Find(n.Compiler, n.Arch)
		if len(cands) == 0 {
			return false, &NoCompilerError{Package: n.Name, Constraint: n.Compiler.String(), Arch: n.Arch}
		}
		filtered, missing := requireFeatures(cands)
		if len(filtered) == 0 {
			return false, &MissingFeatureError{Package: n.Name, Feature: missing,
				Compiler: n.Compiler.String(), Arch: n.Arch}
		}
		cands = filtered
	} else {
		// No constraint at all: preference order, then registry default —
		// skipping preferences that cannot provide the needed features.
		for _, pref := range r.c.Config.CompilerOrder() {
			found, _ := requireFeatures(r.c.Registry.Find(pref, n.Arch))
			if len(found) > 0 {
				cands = found
				break
			}
		}
		// Prefer the registry default when it qualifies; only when it does
		// not are all toolchains copied, to pick from or to name what is
		// missing.
		if len(cands) == 0 {
			if def, ok := r.c.Registry.Default(n.Arch); ok && def.HasFeatures(features) {
				n.Compiler = def.Spec()
				return true, nil
			}
			all, missing := requireFeatures(r.c.Registry.Find(spec.Compiler{}, n.Arch))
			if len(all) == 0 {
				if missing != "" {
					return false, &MissingFeatureError{Package: n.Name, Feature: missing,
						Compiler: "<any>", Arch: n.Arch}
				}
				return false, &NoCompilerError{Package: n.Name, Constraint: "<any>", Arch: n.Arch}
			}
			cands = all
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		ri, rj := r.c.Config.CompilerRank(cands[i].Spec()), r.c.Config.CompilerRank(cands[j].Spec())
		if ri != rj {
			return ri < rj
		}
		return cands[i].Version.Compare(cands[j].Version) > 0
	})
	n.Compiler = cands[0].Spec()
	return true, nil
}

// concretizeVariants fills unset declared variants from configuration or
// package defaults, and rejects variants the package does not declare.
func (r *resolver) concretizeVariants(n *spec.Spec, def *pkg.Package) (bool, error) {
	for name := range n.Variants {
		if _, ok := def.VariantDefault(name); !ok {
			return false, &UnknownVariantError{Package: n.Name, Variant: name}
		}
	}
	changed := false
	for _, v := range def.Variants {
		if _, set := n.Variant(v.Name); set {
			continue
		}
		val := v.Default
		if override, ok := r.c.Config.VariantDefault(n.Name, v.Name); ok {
			val = override
		}
		n.SetVariant(v.Name, val)
		changed = true
	}
	return changed, nil
}
