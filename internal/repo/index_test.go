package repo_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// The linear scans the provider index replaced. They walk every visible
// package on every call and serve here as the oracle.

func oracleProviderNames(p *repo.Path, virtual string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range p.Repos() {
		for _, n := range r.Names() {
			if seen[n] {
				continue
			}
			def, _ := r.Get(n)
			if def.ProvidesVirtualName(virtual) {
				out = append(out, n)
			}
			seen[n] = true
		}
	}
	sort.Strings(out)
	return out
}

func oracleIsVirtual(p *repo.Path, name string) bool {
	if _, _, ok := p.Get(name); ok {
		return false
	}
	return len(oracleProviderNames(p, name)) > 0
}

func oracleProvidersFor(p *repo.Path, virtual *spec.Spec) []repo.Provider {
	var out []repo.Provider
	seen := make(map[string]bool)
	for _, r := range p.Repos() {
		for _, name := range r.Names() {
			if seen[name] {
				continue
			}
			seen[name] = true
			def, _ := r.Get(name)
			for _, pr := range def.Provides {
				if pr.Virtual.Name != virtual.Name {
					continue
				}
				if !pr.Virtual.Compatible(virtual) {
					continue
				}
				out = append(out, repo.Provider{Package: def, When: pr.When, Virtual: pr.Virtual.Clone()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package.Name != out[j].Package.Name {
			return out[i].Package.Name < out[j].Package.Name
		}
		return out[i].When != nil && out[j].When == nil
	})
	return out
}

func oracleVirtuals(p *repo.Path) []string {
	set := make(map[string]bool)
	for _, r := range p.Repos() {
		for _, n := range r.Names() {
			def, _ := r.Get(n)
			for _, pr := range def.Provides {
				set[pr.Virtual.Name] = true
			}
		}
	}
	var out []string
	for v := range set {
		if oracleIsVirtual(p, v) {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// fig8Path is the 245-package path of Fig. 8: ARES, the synthetic
// packages and builtin.
func fig8Path() *repo.Path {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	return repo.NewPath(ares.Repo(), synth, repo.Builtin())
}

// sameProviders compares two ProvidersFor answers entry by entry: the same
// definition and condition, an equal interface spec, and a Virtual that is
// a clone, never the definition's own spec.
func sameProviders(t *testing.T, label string, got, want []repo.Provider) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d providers, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Package != w.Package || g.When != w.When || g.Virtual.String() != w.Virtual.String() {
			t.Fatalf("%s[%d] = %s when=%v %s, oracle %s when=%v %s", label, i,
				g.Package.Name, g.When, g.Virtual, w.Package.Name, w.When, w.Virtual)
		}
		for _, pr := range g.Package.Provides {
			if pr.Virtual == g.Virtual {
				t.Fatalf("%s[%d]: Virtual aliases the definition's spec", label, i)
			}
		}
	}
}

// queryNames is every package name, every virtual and a few unknown names.
func queryNames(p *repo.Path) []string {
	names := append(p.Names(), oracleVirtuals(p)...)
	return append(names, "no-such-package", "mpi2", "")
}

// constraintsFor returns the version constraints ProvidersFor is checked
// with for one name: none, every interface version some package provides
// for it, and ranges below, inside and beyond the usual ones.
func constraintsFor(t *testing.T, p *repo.Path, name string) []*spec.Spec {
	if name == "" {
		return []*spec.Spec{spec.New("")}
	}
	exprs := []string{name, name + "@:1", name + "@2:", name + "@1.0", name + "@99:"}
	for _, r := range p.Repos() {
		for _, n := range r.Names() {
			def, _ := r.Get(n)
			for _, pr := range def.Provides {
				if pr.Virtual.Name == name {
					exprs = append(exprs, pr.Virtual.String())
				}
			}
		}
	}
	out := make([]*spec.Spec, len(exprs))
	for i, e := range exprs {
		s, err := syntax.Parse(e)
		if err != nil {
			t.Fatalf("parse %q: %v", e, err)
		}
		out[i] = s
	}
	return out
}

func checkAgainstOracle(t *testing.T, p *repo.Path) {
	t.Helper()
	if got, want := p.Virtuals(), oracleVirtuals(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("Virtuals = %v, oracle %v", got, want)
	}
	for _, name := range queryNames(p) {
		if got, want := p.IsVirtual(name), oracleIsVirtual(p, name); got != want {
			t.Fatalf("IsVirtual(%q) = %v, oracle %v", name, got, want)
		}
		if got, want := p.ProviderNames(name), oracleProviderNames(p, name); !reflect.DeepEqual(got, want) {
			t.Fatalf("ProviderNames(%q) = %v, oracle %v", name, got, want)
		}
		for _, c := range constraintsFor(t, p, name) {
			sameProviders(t, fmt.Sprintf("ProvidersFor(%s)", c), p.ProvidersFor(c), oracleProvidersFor(p, c))
		}
	}
}

func TestProviderIndexMatchesOracle(t *testing.T) {
	p := fig8Path()
	if len(p.Virtuals()) == 0 {
		t.Fatal("Fig. 8 path has no virtuals")
	}
	checkAgainstOracle(t, p)
	// Answers are copies: editing one does not reach the index.
	if names := p.ProviderNames("mpi"); len(names) > 0 {
		names[0] = "clobbered"
		if p.ProviderNames("mpi")[0] == "clobbered" {
			t.Error("ProviderNames returned the index's own slice")
		}
	}
	if vs := p.Virtuals(); len(vs) > 0 {
		vs[0] = "clobbered"
		if p.Virtuals()[0] == "clobbered" {
			t.Error("Virtuals returned the index's own slice")
		}
	}
}

func newPkg(name string, provides ...string) *pkg.Package {
	p := pkg.New(name).Describe(name).WithVersion("1.0", "x")
	for _, v := range provides {
		p.ProvidesVirtual(v, "")
	}
	return p
}

// TestProviderIndexConditionedFirst declares an unconditional directive
// before a conditioned one; answers list the conditioned one first.
func TestProviderIndexConditionedFirst(t *testing.T) {
	r := repo.NewRepo("site")
	r.MustAdd(newPkg("impl", "iface@:1").WithVersion("2.0", "y").ProvidesVirtual("iface@2:", "@2.0"))
	p := repo.NewPath(r)
	got := p.ProvidersFor(syntax.MustParse("iface"))
	if len(got) != 2 || got[0].When == nil || got[1].When != nil {
		t.Fatalf("ProvidersFor(iface) = %v, want the conditioned entry first", got)
	}
	checkAgainstOracle(t, p)
}

func TestProviderIndexSeesAdd(t *testing.T) {
	r := repo.NewRepo("site")
	r.MustAdd(newPkg("impl-a", "iface@:1"))
	p := repo.NewPath(r)
	fp := p.Fingerprint()
	if got := p.ProviderNames("iface"); !reflect.DeepEqual(got, []string{"impl-a"}) {
		t.Fatalf("ProviderNames = %v", got)
	}

	// A provider added after the first query is visible at once.
	r.MustAdd(newPkg("impl-b", "iface@2:"))
	if got := p.ProviderNames("iface"); !reflect.DeepEqual(got, []string{"impl-a", "impl-b"}) {
		t.Errorf("after Add: ProviderNames = %v", got)
	}
	if got := p.ProvidersFor(syntax.MustParse("iface@2:")); len(got) != 1 || got[0].Package.Name != "impl-b" {
		t.Errorf("after Add: ProvidersFor(iface@2:) = %v", got)
	}
	if fp == p.Fingerprint() {
		t.Error("Fingerprint unchanged by Add")
	}
	checkAgainstOracle(t, p)

	// Replacing a definition drops its old provides.
	r.MustAdd(newPkg("impl-a"))
	if got := p.ProviderNames("iface"); !reflect.DeepEqual(got, []string{"impl-b"}) {
		t.Errorf("after replace: ProviderNames = %v", got)
	}
	if got := p.ProvidersFor(syntax.MustParse("iface")); len(got) != 1 || got[0].Package.Name != "impl-b" {
		t.Errorf("after replace: ProvidersFor(iface) = %v", got)
	}
	checkAgainstOracle(t, p)

	// A package named like the virtual makes it a real package.
	r.MustAdd(newPkg("iface"))
	if p.IsVirtual("iface") || len(p.Virtuals()) != 0 {
		t.Errorf("iface is a package now: IsVirtual = %v, Virtuals = %v", p.IsVirtual("iface"), p.Virtuals())
	}
	checkAgainstOracle(t, p)
}

func TestProviderIndexSeesPrepend(t *testing.T) {
	p := repo.NewPath(repo.Builtin())
	before := p.ProviderNames("mpi")
	if !contains(before, "mpich") {
		t.Fatalf("builtin mpi providers %v lack mpich", before)
	}
	fp := p.Fingerprint()

	// A site mpich that provides nothing shadows builtin's.
	site := repo.NewRepo("site")
	site.MustAdd(newPkg("mpich"))
	p.Prepend(site)
	if contains(p.ProviderNames("mpi"), "mpich") {
		t.Errorf("shadowed mpich still provides mpi: %v", p.ProviderNames("mpi"))
	}
	if fp == p.Fingerprint() {
		t.Error("Fingerprint unchanged by Prepend")
	}
	checkAgainstOracle(t, p)

	// A site mpich that provides mpi@:9 answers instead of builtin's.
	site2 := repo.NewRepo("site2")
	mine := newPkg("mpich", "mpi@:9")
	site2.MustAdd(mine)
	p.Prepend(site2)
	var n int
	for _, pr := range p.ProvidersFor(syntax.MustParse("mpi")) {
		if pr.Package.Name == "mpich" {
			n++
			if pr.Package != mine || pr.Virtual.String() != "mpi@:9" {
				t.Errorf("mpich entry from %p (%s), want the first repo's", pr.Package, pr.Virtual)
			}
		}
	}
	if n != 1 {
		t.Errorf("%d mpich entries, want 1", n)
	}
	checkAgainstOracle(t, p)
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// TestProviderIndexConcurrent has 16 goroutines build and read the index of
// a fresh path at once; run it under -race.
func TestProviderIndexConcurrent(t *testing.T) {
	ref := fig8Path()
	p := repo.NewPath(ref.Repos()...)
	wantVirtuals := ref.Virtuals()
	wantMPI := ref.ProviderNames("mpi")
	wantFP := ref.Fingerprint()
	mpi := syntax.MustParse("mpi@2:")
	wantFor := len(ref.ProvidersFor(mpi))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 5 {
				case 0:
					if !p.IsVirtual("mpi") || p.IsVirtual("mpich") {
						errs <- fmt.Errorf("IsVirtual wrong")
						return
					}
				case 1:
					if got := p.ProviderNames("mpi"); !reflect.DeepEqual(got, wantMPI) {
						errs <- fmt.Errorf("ProviderNames = %v", got)
						return
					}
				case 2:
					if got := p.ProvidersFor(mpi); len(got) != wantFor {
						errs <- fmt.Errorf("ProvidersFor: %d entries, want %d", len(got), wantFor)
						return
					}
				case 3:
					if got := p.Virtuals(); !reflect.DeepEqual(got, wantVirtuals) {
						errs <- fmt.Errorf("Virtuals = %v", got)
						return
					}
				case 4:
					if got := p.Fingerprint(); got != wantFP {
						errs <- fmt.Errorf("Fingerprint = %s", got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
