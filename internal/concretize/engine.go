package concretize

import (
	"fmt"
	"slices"
	"sort"

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
}

// run performs one propagation pass to a fixed point: the Fig. 6 cycle,
// made incremental. The first pass visits every node and seeds a
// dirty-node worklist; later passes revisit only nodes whose constraints
// may have moved (freshly attached deps, constrained providers, nodes with
// when= gated directives). Convergence is declared only after a FULL pass
// reports no change, so the fixed point reached is identical to
// re-scanning every node every iteration — the worklist is purely a
// work-skipping device.
func (r *resolver) run(abstract *spec.Spec) (*spec.Spec, error) {
	root := abstract.Clone()
	var dirty map[string]bool // nil = full pass over every node
	for iter := 0; ; iter++ {
		if iter >= r.c.MaxIters {
			return nil, &Error{Spec: abstract.String(),
				Err: fmt.Errorf("no fixed point after %d iterations", r.c.MaxIters)}
		}
		r.c.Stats.iterations.Add(1)
		touched := make(map[string]bool) // nodes whose state changed this pass
		changed := false

		ch, err := r.applyPackageConstraints(root, dirty, touched)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}
		changed = changed || ch

		// Parameters before virtual resolution: provider choice is greedy
		// and irrevocable, so it should see the architecture and compiler
		// context (a vendor MPI conditioned on "=bgq" must not be chosen
		// for a Linux build).
		ch, err = r.concretizeParams(root, dirty, touched)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}
		changed = changed || ch

		ch, err = r.resolveVirtuals(root, touched)
		if err != nil {
			return nil, &Error{Spec: abstract.String(), Err: err}
		}
		changed = changed || ch

		if !changed {
			if dirty == nil {
				break // a full pass was quiescent: fixed point
			}
			// The worklist drained; confirm quiescence with a full pass.
			dirty = nil
			continue
		}
		dirty = r.nextWorklist(root, touched)
	}
	return r.decode(abstract, root)
}

// nextWorklist computes the nodes the next iteration must revisit: every
// node that changed this pass, the dependents of changed nodes (a parent's
// provider checks and constraint intersections react to a child's
// configuration), and every node whose package definition carries when=
// gated directives. The last group is the conservative part: a when=
// predicate is evaluated with Satisfies, which may reference arbitrary DAG
// state (e.g. when="^mpich"), so those nodes are re-examined whenever
// anything moved. Packages without conditional directives — the vast
// majority — drop out of the worklist as soon as they converge.
func (r *resolver) nextWorklist(root *spec.Spec, touched map[string]bool) map[string]bool {
	dirty := make(map[string]bool, 2*len(touched))
	for name := range touched {
		dirty[name] = true
	}
	for _, n := range root.Nodes() {
		if dirty[n.Name] {
			continue
		}
		if r.c.hasConditionalDirectives(n.Name) {
			dirty[n.Name] = true
			continue
		}
		for _, d := range n.DirectDeps() {
			if touched[d.Name] {
				dirty[n.Name] = true
				break
			}
		}
	}
	return dirty
}

// hasConditionalDirectives reports whether a package definition carries any
// when= gated dependency, provides, or feature directive — the directives
// whose activation can flip as other nodes concretize.
func (c *Concretizer) hasConditionalDirectives(name string) bool {
	def, _, ok := c.Path.Get(name)
	if !ok {
		return false // virtual node; resolveVirtuals scans the DAG anyway
	}
	for _, d := range def.Dependencies {
		if d.When != nil {
			return true
		}
	}
	for _, pr := range def.Provides {
		if pr.When != nil {
			return true
		}
	}
	for _, f := range def.Features {
		if f.When != nil {
			return true
		}
	}
	return false
}

// applyPackageConstraints merges directive constraints from package files
// into the DAG: for every resolved (non-virtual) node, the dependencies
// active under its current configuration are intersected in, with new edges
// attached (Fig. 6's "Intersect Constraints"). A nil dirty set means a full
// pass; otherwise only worklist nodes (plus nodes touched earlier in this
// pass) are visited. Changed nodes are recorded in touched.
func (r *resolver) applyPackageConstraints(root *spec.Spec, dirty, touched map[string]bool) (bool, error) {
	changed := false
	// Snapshot nodes first: attaching deps during traversal would mutate
	// the structure being walked.
	nodes := root.Nodes()
	index := make(map[string]*spec.Spec, len(nodes))
	names := make([]string, len(nodes)) // index's keys, sorted
	for i, n := range nodes {
		index[n.Name] = n
		names[i] = n.Name
	}
	sort.Strings(names)
	for _, n := range nodes {
		if dirty != nil && !dirty[n.Name] && !touched[n.Name] {
			continue
		}
		def, ns, ok := r.c.Path.Get(n.Name)
		if !ok {
			continue // virtual; resolved separately
		}
		if n.Namespace == "" {
			n.Namespace = ns
			changed = true
			touched[n.Name] = true
		}
		for _, d := range def.DependenciesFor(n) {
			depName := d.Constraint.Name
			edgeType := spec.DepDefault
			if d.BuildOnly {
				edgeType = spec.DepBuild
			}
			// A virtual dependency already satisfied by a provider in the
			// DAG attaches to that provider rather than re-creating the
			// virtual node (otherwise resolution would never converge).
			if prov, found, err := r.dagProviderFor(index, names, d.Constraint); err != nil {
				return changed, err
			} else if found {
				if n.DirectDep(prov.Name) == nil {
					n.SetDep(prov, edgeType)
					changed = true
					touched[n.Name] = true
				}
				continue
			}
			if existing, ok := index[depName]; ok {
				ch, err := existing.ConstrainChanged(d.Constraint)
				if err != nil {
					return changed, err
				}
				if ch {
					changed = true
					touched[depName] = true
				}
				if n.DirectDep(depName) == nil {
					n.SetDep(existing, edgeType)
					changed = true
					touched[n.Name] = true
				}
			} else {
				node := d.Constraint.Clone()
				n.SetDep(node, edgeType)
				index[depName] = node
				names = slices.Insert(names, sort.SearchStrings(names, depName), depName)
				changed = true
				touched[depName] = true
			}
		}
	}
	return changed, nil
}

// dagProviderFor looks for a node already in the DAG that provides a
// virtual dependency constraint, scanning index in the order of names (its
// sorted keys). If nodes provide the interface name but none compatibly,
// that is a conflict: one DAG must not mix two providers of the same
// interface (the ABI-consistency guarantee of §3.2.1).
func (r *resolver) dagProviderFor(index map[string]*spec.Spec, names []string, dep *spec.Spec) (*spec.Spec, bool, error) {
	if !r.c.Path.IsVirtual(dep.Name) {
		return nil, false, nil
	}
	sawProvider := false
	for _, name := range names {
		n := index[name]
		def, _, ok := r.c.Path.Get(n.Name)
		if !ok {
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
// Replaced providers and rewired parents are recorded in touched.
func (r *resolver) resolveVirtuals(root *spec.Spec, touched map[string]bool) (bool, error) {
	changed := false
	for {
		vnode := r.findVirtualNode(root)
		if vnode == nil {
			return changed, nil
		}
		r.c.Stats.virtualsSeen.Add(1)
		provider, err := r.chooseProvider(root, vnode)
		if err != nil {
			return changed, err
		}
		r.replaceNode(root, vnode, provider, touched)
		touched[provider.Name] = true
		changed = true
	}
}

// findVirtualNode returns some virtual node of the DAG, or nil.
func (r *resolver) findVirtualNode(root *spec.Spec) *spec.Spec {
	var found *spec.Spec
	root.Traverse(func(n *spec.Spec) bool {
		if r.c.Path.IsVirtual(n.Name) {
			found = n
			return false
		}
		return true
	})
	return found
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
// by the provides-when condition.
func (r *resolver) chooseProvider(root, vnode *spec.Spec) (*spec.Spec, error) {
	// 1. A DAG node that provides the interface wins outright.
	var inDAG *spec.Spec
	root.Traverse(func(n *spec.Spec) bool {
		if n == vnode {
			return true
		}
		def, _, ok := r.c.Path.Get(n.Name)
		if !ok || !def.ProvidesVirtualName(vnode.Name) {
			return true
		}
		// Check interface-version compatibility for some provides entry.
		for _, pr := range def.Provides {
			if pr.Virtual.Name == vnode.Name && pr.Virtual.Compatible(vnode) {
				inDAG = n
				return false
			}
		}
		return true
	})
	if inDAG != nil {
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

// replaceNode rewires every edge pointing at old to point at repl. If the
// DAG already contains a node named repl.Name elsewhere, constraints merge
// into that node to preserve the one-node-per-name invariant. Rewired
// parents are recorded in touched.
func (r *resolver) replaceNode(root, old, repl *spec.Spec, touched map[string]bool) {
	root.Traverse(func(n *spec.Spec) bool {
		if n.DirectDep(old.Name) == old {
			t := n.EdgeType(old.Name)
			n.RemoveDep(old.Name)
			n.SetDep(repl, t)
			touched[n.Name] = true
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
// "consistent, repeatable choices" (§3.4.4). The cheap whole-DAG
// propagation steps (architecture defaulting, compiler inheritance) always
// run in full; the expensive per-node pinning honors the dirty worklist.
// Changed nodes are recorded in touched.
func (r *resolver) concretizeParams(root *spec.Spec, dirty, touched map[string]bool) (bool, error) {
	changed := false

	// Architecture: the root adopts the default; dependencies inherit the
	// root's platform.
	if root.Arch == "" {
		root.Arch = r.c.Config.DefaultArch()
		changed = true
		touched[root.Name] = true
	}
	// inheritCompilers below changes no edges, so one snapshot serves both
	// loops.
	nodes := root.Nodes()
	for _, n := range nodes {
		if n.Arch == "" {
			n.Arch = root.Arch
			changed = true
			touched[n.Name] = true
		}
	}

	// Compiler inheritance: children without a constraint build with their
	// parent's compiler, so one toolchain is used consistently across a DAG
	// unless overridden per node.
	ch := r.inheritCompilers(root, touched)
	changed = changed || ch

	for _, n := range nodes {
		if dirty != nil && !dirty[n.Name] && !touched[n.Name] {
			continue
		}
		def, _, ok := r.c.Path.Get(n.Name)
		if !ok {
			continue // unresolved virtual: next iteration
		}

		// Externals: a matching registration satisfies the node without a
		// store build (§4.4's vendor MPI configuration).
		if !n.External {
			if ext, ok := r.c.Config.ExternalFor(n, n.Arch); ok {
				if err := n.Constrain(ext.Constraint); err != nil {
					return changed, err
				}
				n.External = true
				n.Path = ext.Path
				changed = true
				touched[n.Name] = true
			}
		}

		// Reuse: an installed or cached configuration of this package is
		// constrained in when compatible with everything known so far, so
		// its exact version/compiler/variants — and therefore its full
		// hash — carry over. An incompatible pin is dropped silently: the
		// criteria put satisfiability above reuse.
		if ch, err := r.applyReusePin(n, touched); err != nil {
			return changed, err
		} else if ch {
			changed = true
		}

		ch, err := r.concretizeVersion(n, def)
		if err != nil {
			return changed, err
		}
		if ch {
			changed = true
			touched[n.Name] = true
		}

		if !n.External {
			ch, err = r.concretizeCompiler(n, def.FeaturesFor(n))
			if err != nil {
				return changed, err
			}
			if ch {
				changed = true
				touched[n.Name] = true
			}
		}

		ch, err = r.concretizeVariants(n, def)
		if err != nil {
			return changed, err
		}
		if ch {
			changed = true
			touched[n.Name] = true
		}
	}
	return changed, nil
}

// applyReusePin constrains a node with its reuse carrier, at most once per
// run. Incompatible carriers are skipped — never an error: reuse must fall
// back to a clean solve, not poison it.
func (r *resolver) applyReusePin(n *spec.Spec, touched map[string]bool) (bool, error) {
	pin, ok := r.pins[n.Name]
	if !ok || r.pinApplied[n.Name] || n.External {
		return false, nil
	}
	r.pinApplied[n.Name] = true
	if !n.Compatible(pin) {
		return false, nil
	}
	ch, err := n.ConstrainChanged(pin)
	if err != nil {
		return false, nil // racy incompatibility: treat as a skipped pin
	}
	if ch {
		touched[n.Name] = true
	}
	return ch, nil
}

// inheritCompilers propagates compiler constraints from parents to
// children that have none. Returns whether anything changed; changed nodes
// are recorded in touched.
func (r *resolver) inheritCompilers(root *spec.Spec, touched map[string]bool) bool {
	changed := false
	type inh struct {
		comp spec.Compiler
		arch string
	}
	var walk func(n *spec.Spec, inherited inh)
	seen := make(map[string]bool)
	walk = func(n *spec.Spec, inherited inh) {
		// A node on a different architecture than its parent (the
		// front-end/back-end split of §3.2.3) must not inherit the
		// parent's toolchain: cross toolchains differ per platform, so the
		// node picks its own arch-appropriate compiler instead.
		sameArch := inherited.arch == "" || n.Arch == "" || n.Arch == inherited.arch
		if n.Compiler.IsZero() && !inherited.comp.IsZero() && !n.External && sameArch {
			n.Compiler = inherited.comp
			changed = true
			touched[n.Name] = true
		}
		if seen[n.Name] {
			return
		}
		seen[n.Name] = true
		eff := inherited
		if !n.Compiler.IsZero() {
			eff = inh{comp: n.Compiler, arch: n.Arch}
		} else if n.Arch != "" {
			eff.arch = n.Arch
		}
		for _, d := range n.DirectDeps() {
			walk(d, eff)
		}
	}
	walk(root, inh{})
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
		if len(cands) == 0 {
			all, missing := requireFeatures(r.c.Registry.Find(spec.Compiler{}, n.Arch))
			if len(all) == 0 {
				if missing != "" {
					return false, &MissingFeatureError{Package: n.Name, Feature: missing,
						Compiler: "<any>", Arch: n.Arch}
				}
				return false, &NoCompilerError{Package: n.Name, Constraint: "<any>", Arch: n.Arch}
			}
			// Prefer the registry default when it qualifies.
			if def, ok := r.c.Registry.Default(n.Arch); ok && def.HasFeatures(features) {
				cands = []compiler.Toolchain{def}
			} else {
				cands = all
			}
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
