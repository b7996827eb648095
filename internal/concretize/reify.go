package concretize

import (
	"errors"
	"sort"

	"repro/internal/concretize/solve"
	"repro/internal/spec"
	"repro/internal/version"
)

// errAnonymous rejects specs with no root package name.
var errAnonymous = errors.New("cannot concretize an anonymous spec")

// checkNames rejects an anonymous input and any node name that is neither a
// package nor a virtual, before any evaluation runs.
func (c *Concretizer) checkNames(abstract *spec.Spec) error {
	if abstract.Name == "" {
		return &Error{Spec: abstract.String(), Err: errAnonymous}
	}
	var nameErr error
	abstract.Traverse(func(n *spec.Spec) bool {
		if _, _, ok := c.Path.Get(n.Name); ok || c.Path.IsVirtual(n.Name) {
			return true
		}
		nameErr = &UnknownPackageError{Name: n.Name, Suggestions: c.suggest(n.Name)}
		return false
	})
	if nameErr != nil {
		return &Error{Spec: abstract.String(), Err: nameErr}
	}
	return nil
}

// reify builds what the solver searches: the ranked provider domain of
// every virtual, marked reachable or not from the input. It runs only after
// the greedy leaf conflicts, and records on the trail what the directives
// and the input admit. Reachability is computed conservatively — every
// dependency directive counts, conditional (when=) or not — so the solver
// never branches on a virtual the input cannot possibly pull in, yet never
// misses one a condition might activate.
func (c *Concretizer) reify(abstract *spec.Spec, snap *reuseSnapshot, trail *solve.Trail) *solve.Problem {
	// Reachability closure: packages reachable from the input through any
	// dependency directive, plus the providers of every reachable virtual
	// (a provider's own dependencies can pull in further virtuals).
	pkgs := make(map[string]bool)
	virts := make(map[string]bool)
	var queue []string
	var enqueue func(name string)
	enqueue = func(name string) {
		switch {
		case c.Path.IsVirtual(name):
			if !virts[name] {
				virts[name] = true
				for _, p := range c.Path.ProviderNames(name) {
					enqueue(p)
				}
			}
		case !pkgs[name]:
			pkgs[name] = true
			queue = append(queue, name)
		}
	}
	abstract.Traverse(func(n *spec.Spec) bool {
		enqueue(n.Name)
		return true
	})
	for len(queue) > 0 {
		def, _, ok := c.Path.Get(queue[0])
		queue = queue[1:]
		if ok {
			for _, d := range def.Dependencies {
				enqueue(d.Constraint.Name)
			}
		}
	}

	// Virtual domains: candidate providers in criteria order (reused first,
	// then configured policy rank, then name).
	prob := &solve.Problem{Root: abstract.Name}
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

	// Version domains, in name order: a package admits a declared version
	// its input node allows, or extrapolates an exact unknown pin; anything
	// else is an empty domain.
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	domains := 0
	var empty []string
	for _, name := range names {
		def, _, ok := c.Path.Get(name)
		if !ok {
			continue
		}
		domains++
		node := abstract.Dep(name)
		if name == abstract.Name {
			node = abstract
		}
		if admitsKnownVersion(def.KnownVersions(), node) {
			continue
		}
		if node != nil {
			if ranges := node.Versions.Ranges(); len(ranges) == 1 && ranges[0].IsSingle() {
				trail.Addf("reify: %s@%s extrapolated (unknown exact version)", name, ranges[0].Lo)
				continue
			}
		}
		empty = append(empty, name)
	}
	trail.Addf("reify: %d package domains, %d/%d virtuals reachable",
		domains, len(virts), len(prob.Virtuals))
	for _, name := range empty {
		trail.Addf("unit: %s has an empty version domain", name)
	}
	return prob
}

// admitsKnownVersion reports whether node's version constraint (none when
// node is nil) admits one of the declared versions.
func admitsKnownVersion(known []version.Version, node *spec.Spec) bool {
	for _, v := range known {
		if node == nil || node.Versions.Contains(v) {
			return true
		}
	}
	return false
}
