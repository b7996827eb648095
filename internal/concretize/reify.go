package concretize

import (
	"errors"

	"repro/internal/concretize/solve"
	"repro/internal/spec"
)

// errAnonymous rejects specs with no root package name.
var errAnonymous = errors.New("cannot concretize an anonymous spec")

// reify is the pipeline's first layer: it walks repository directives,
// configuration policy, and the abstract input spec into the solver core's
// typed fact domains. Reachability is computed conservatively — every
// dependency directive counts, conditional (when=) or not — so the solver
// never branches on a virtual the input cannot possibly pull in, yet never
// misses one a condition might activate.
func (c *Concretizer) reify(abstract *spec.Spec, snap *reuseSnapshot, trail *solve.Trail) (*solve.Problem, error) {
	if abstract.Name == "" {
		return nil, &Error{Spec: abstract.String(), Err: errAnonymous}
	}
	// Every named node must be a package or virtual.
	var nameErr error
	abstract.Traverse(func(n *spec.Spec) bool {
		if _, _, ok := c.Path.Get(n.Name); ok {
			return true
		}
		if c.Path.IsVirtual(n.Name) {
			return true
		}
		nameErr = &UnknownPackageError{Name: n.Name, Suggestions: c.suggest(n.Name)}
		return false
	})
	if nameErr != nil {
		return nil, &Error{Spec: abstract.String(), Err: nameErr}
	}

	// Reachability closure: packages reachable from the input through any
	// dependency directive, plus the providers of every reachable virtual
	// (a provider's own dependencies can pull in further virtuals).
	pkgs := make(map[string]bool)
	virts := make(map[string]bool)
	var queue []string
	enqueue := func(name string) {
		if c.Path.IsVirtual(name) {
			if !virts[name] {
				virts[name] = true
				queue = append(queue, c.Path.ProviderNames(name)...)
			}
			return
		}
		if !pkgs[name] {
			pkgs[name] = true
			queue = append(queue, name)
		}
	}
	abstract.Traverse(func(n *spec.Spec) bool {
		enqueue(n.Name)
		return true
	})
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if c.Path.IsVirtual(name) {
			enqueue(name)
			continue
		}
		if !pkgs[name] {
			pkgs[name] = true
		}
		def, _, ok := c.Path.Get(name)
		if !ok {
			continue
		}
		for _, d := range def.Dependencies {
			if !pkgs[d.Constraint.Name] && !virts[d.Constraint.Name] {
				enqueue(d.Constraint.Name)
			}
		}
	}

	prob := &solve.Problem{
		Root:     abstract.Name,
		Packages: make(map[string]*solve.PackageFacts, len(pkgs)),
	}
	for name := range pkgs {
		def, _, ok := c.Path.Get(name)
		if !ok {
			continue
		}
		pf := &solve.PackageFacts{
			Name:        name,
			Conditional: def.HasConditionalDirectives(),
			Variants:    make(map[string][]bool, len(def.Variants)),
		}
		// Version domain: declared versions admitted by the input node's
		// constraint (newest first), or a single extrapolated version for an
		// exact unknown pin.
		node := abstract.Dep(name)
		if name == abstract.Name {
			node = abstract
		}
		for _, v := range def.KnownVersions() {
			if node == nil || node.Versions.Contains(v) {
				pf.Versions = append(pf.Versions, v.String())
			}
		}
		if len(pf.Versions) == 0 && node != nil {
			if ranges := node.Versions.Ranges(); len(ranges) == 1 && ranges[0].IsSingle() {
				pf.Versions = append(pf.Versions, ranges[0].Lo.String())
				trail.Addf("reify: %s@%s extrapolated (unknown exact version)", name, ranges[0].Lo)
			}
		}
		for _, v := range def.Variants {
			if node != nil {
				if set, ok := node.Variant(v.Name); ok {
					pf.Variants[v.Name] = []bool{set}
					continue
				}
			}
			pf.Variants[v.Name] = []bool{v.Default, !v.Default}
		}
		prob.Packages[name] = pf
	}

	// Virtual domains: candidate providers in criteria order (reused first,
	// then configured policy rank, then name).
	for _, v := range c.Path.Virtuals() {
		vf := solve.VirtualFacts{Name: v, Reachable: virts[v]}
		for _, p := range c.Path.ProviderNames(v) {
			reused := false
			if snap != nil {
				_, reused = snap.pins[p]
			}
			vf.Providers = append(vf.Providers, solve.Provider{
				Name:   p,
				Rank:   c.Config.ProviderRank(v, p),
				Reused: reused,
			})
		}
		solve.RankProviders(vf.Providers)
		prob.Virtuals = append(prob.Virtuals, vf)
	}
	trail.Addf("reify: %d package domains, %d/%d virtuals reachable",
		len(prob.Packages), len(virts), len(prob.Virtuals))
	return prob, nil
}
