package repo

import (
	"slices"
	"sort"
	"sync"
)

// index is an immutable snapshot of what a Path derives from its
// repositories' contents: the reverse virtual-provider index (§3.3, Fig. 6)
// and, computed on first use, the fingerprint. It records the repository
// list and every repository's generation at build time; a Path rebuilds it
// when either differs (Prepend, or an Add to any repository), so one check
// invalidates both. Snapshots are published through an atomic pointer and
// their tables are never mutated after publication (the fingerprint is
// filled in once, under fpOnce), so concurrent readers need no lock.
type index struct {
	repos []*Repo
	gens  []uint64

	// byVirtual maps every name that appears in a visible provides
	// directive to its providers.
	byVirtual map[string]*virtualEntry
	// virtuals lists, sorted, the names in byVirtual that no visible
	// package is called (IsVirtual).
	virtuals []string

	fpOnce sync.Once
	fp     string
}

// virtualEntry is one virtual's slice of the index.
type virtualEntry struct {
	// names are the providing packages, sorted.
	names []string
	// provides holds every provides directive for the virtual in
	// ProvidersFor order: by package name, conditioned entries first
	// within a package, directive order otherwise. Virtual is the
	// definition's own spec and must be cloned before it leaves the index.
	provides []Provider
	// virtual is false when a visible package carries the name itself.
	virtual bool
}

// index returns the current snapshot, rebuilding it if the repository list
// or any repository's generation changed since it was built.
func (p *Path) index() *index {
	if ix := p.idx.Load(); ix != nil && ix.current(p.repos) {
		return ix
	}
	ix := buildIndex(p.repos)
	p.idx.Store(ix)
	return ix
}

func (ix *index) current(repos []*Repo) bool {
	if len(repos) != len(ix.repos) {
		return false
	}
	for i, r := range repos {
		if r != ix.repos[i] || r.generation() != ix.gens[i] {
			return false
		}
	}
	return true
}

// buildIndex walks every visible package once. Generations are read before
// the contents, so a snapshot never claims a generation newer than what it
// saw.
func buildIndex(repos []*Repo) *index {
	ix := &index{
		repos:     slices.Clone(repos),
		gens:      make([]uint64, len(repos)),
		byVirtual: make(map[string]*virtualEntry),
	}
	for i, r := range repos {
		ix.gens[i] = r.generation()
	}
	visible := make(map[string]bool)
	for _, r := range repos {
		for _, name := range r.Names() {
			if visible[name] {
				continue // shadowed by an earlier repository
			}
			visible[name] = true
			def, _ := r.Get(name)
			for _, pr := range def.Provides {
				e := ix.byVirtual[pr.Virtual.Name]
				if e == nil {
					e = &virtualEntry{}
					ix.byVirtual[pr.Virtual.Name] = e
				}
				// One package's directives are consecutive.
				if n := len(e.names); n == 0 || e.names[n-1] != name {
					e.names = append(e.names, name)
				}
				e.provides = append(e.provides, Provider{Package: def, When: pr.When, Virtual: pr.Virtual})
			}
		}
	}
	for v, e := range ix.byVirtual {
		sort.Strings(e.names)
		sort.SliceStable(e.provides, func(i, j int) bool {
			a, b := e.provides[i], e.provides[j]
			if a.Package.Name != b.Package.Name {
				return a.Package.Name < b.Package.Name
			}
			return a.When != nil && b.When == nil
		})
		if e.virtual = !visible[v]; e.virtual {
			ix.virtuals = append(ix.virtuals, v)
		}
	}
	sort.Strings(ix.virtuals)
	return ix
}
