package pkg_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ares"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/version"
)

// knownVersionsOracle is KnownVersions as it was computed before the list
// was kept sorted at declaration: filter out deprecated versions, then sort
// newest first.
func knownVersionsOracle(p *pkg.Package) []version.Version {
	var out []version.Version
	for _, vi := range p.VersionInfos {
		if !vi.Deprecated {
			out = append(out, vi.Version)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) > 0 })
	return out
}

// factPackages returns every package of the builtin, ARES and a synthetic
// repository, plus hand-built ones that declare versions out of order.
func factPackages() []*pkg.Package {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	var out []*pkg.Package
	for _, r := range []*repo.Repo{repo.Builtin(), ares.Repo(), synth} {
		for _, name := range r.Names() {
			p, _ := r.Get(name)
			out = append(out, p)
		}
	}
	mixed := pkg.New("mixed").
		WithVersion("1.2", "x").
		WithVersion("3.0", "x", pkg.Deprecated()).
		WithVersion("2.10", "x").
		WithVersion("0.9", "x").
		WithVersion("2.9.1", "x").
		WithVersion("2.9", "x", pkg.Deprecated())
	many := pkg.New("many")
	for _, i := range []int{7, 3, 11, 1, 14, 5, 9, 2, 13, 6, 12, 4, 10, 8} {
		many.WithVersion(fmt.Sprintf("1.%d", i), "x")
	}
	return append(out, mixed, many)
}

func versionStrings(vs []version.Version) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func TestKnownVersionsMatchesOracle(t *testing.T) {
	for _, p := range factPackages() {
		got := fmt.Sprint(versionStrings(p.KnownVersions()))
		want := fmt.Sprint(versionStrings(knownVersionsOracle(p)))
		if got != want {
			t.Errorf("%s: KnownVersions = %s, oracle %s", p.Name, got, want)
		}
		if p.Name == "mixed" && got != "[2.10 2.9.1 1.2 0.9]" {
			t.Errorf("mixed: KnownVersions = %s", got)
		}
		// Appending to an answer must neither change the next answer nor
		// reach another caller's appended copy.
		v99, v98 := version.MustParse("99.0"), version.MustParse("98.0")
		a := append(p.KnownVersions(), v99)
		b := append(p.KnownVersions(), v98)
		if again := fmt.Sprint(versionStrings(p.KnownVersions())); again != want {
			t.Errorf("%s: KnownVersions after appending to a result = %s, want %s", p.Name, again, want)
		}
		if a[len(a)-1].String() != "99.0" || b[len(b)-1].String() != "98.0" {
			t.Errorf("%s: two appended copies of KnownVersions share storage", p.Name)
		}
	}
}
