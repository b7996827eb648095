package concretize

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/syntax"
)

// cyclicEnv builds a repository whose dependency graph is acyclic by
// default but cyclic under a variant: cyca +loop depends on cycb, and cycb
// always depends on cyca.
func cyclicEnv() *Concretizer {
	r := repo.NewRepo("test")
	r.MustAdd(pkg.New("cyca").Describe("a").WithVersion("1.0", "x").
		WithVariant("loop", false, "close the cycle").
		DependsOn("cycb", pkg.When("+loop")))
	r.MustAdd(pkg.New("cycb").Describe("b").WithVersion("1.0", "x").
		DependsOn("cyca"))
	return New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
}

// TestMinimalUnsatCores drives the table of §4.5-style failures: each UNSAT
// input must carry a minimal core naming exactly the guilty constraints —
// not the full implication trail — and removing the core from the input
// must make it satisfiable (checked programmatically, not by eye).
func TestMinimalUnsatCores(t *testing.T) {
	cases := []struct {
		name string
		env  func() *Concretizer
		expr string
		core []string // exact Detail set of the expected minimal core
	}{
		{
			name: "conflicting version pin",
			env:  backtrackEnv, // ptool needs hwloc2@1.9; the input pins 1.7
			expr: "ptool ^hwloc2@1.7",
			core: []string{"hwloc2@1.7"},
		},
		{
			name: "provider conflict",
			env:  backtrackEnv, // forcing aaanet forces hwloc2@1.11 against ptool's 1.9
			expr: "ptool ^aaanet",
			core: []string{"ptool ^aaanet"},
		},
		{
			name: "missing compiler",
			env:  testEnv,
			expr: "libelf%craycc",
			core: []string{"libelf%craycc"},
		},
		{
			name: "cyclic conditional",
			env:  cyclicEnv, // +loop activates the cycb edge, closing a cycle
			expr: "cyca+loop",
			core: []string{"cyca+loop"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.env()
			c.Backtracking = true
			abstract := syntax.MustParse(tc.expr)
			_, err := c.Concretize(abstract)
			if err == nil {
				t.Fatalf("Concretize(%q) should be UNSAT", tc.expr)
			}
			var unsat *UnsatError
			if !errors.As(err, &unsat) {
				t.Fatalf("want UnsatError, got %T: %v", err, err)
			}
			if got := unsat.CoreStrings(); !sameSet(got, tc.core) {
				t.Errorf("core = %v, want %v", got, tc.core)
			}
			// The core is a correction set: dropping exactly those
			// constraints must make the input satisfiable.
			cons := abstract.Constraints()
			trial := abstract
			for _, f := range unsat.Core {
				trial = trial.DropConstraint(cons[f.ID])
			}
			if _, err := c.Concretize(trial); err != nil {
				t.Errorf("input minus core should concretize, got: %v", err)
			}
			// Minimality: the core is smaller than the reified constraint
			// set whenever innocent constraints exist alongside it.
			if len(unsat.Core) >= len(cons) && len(cons) > 1 {
				t.Errorf("core has %d facts — the whole input (%d constraints), not a minimal core",
					len(unsat.Core), len(cons))
			}
		})
	}
}

func sameSet(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[string]bool{}
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			return false
		}
	}
	return true
}

// TestUnsatErrorTransparent: Error() and errors.As behave exactly as the
// undecorated failure would, so message-matching callers see no change.
func TestUnsatErrorTransparent(t *testing.T) {
	c := backtrackEnv()
	c.Backtracking = true
	_, err := c.Concretize(syntax.MustParse("ptool ^hwloc2@1.7"))
	if err == nil {
		t.Fatal("should be UNSAT")
	}
	var unsat *UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("want UnsatError, got %v", err)
	}
	if err.Error() != unsat.Err.Error() {
		t.Errorf("Error() = %q, want underlying %q", err.Error(), unsat.Err.Error())
	}
}

// TestWhyNotGolden pins the rendered "why not" chain for the version-pin
// conflict: cause line, core section, and an implication trail tail.
func TestWhyNotGolden(t *testing.T) {
	c := backtrackEnv()
	c.Backtracking = true
	_, err := c.Concretize(syntax.MustParse("ptool ^hwloc2@1.7"))
	var unsat *UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("want UnsatError, got %v", err)
	}
	got := unsat.WhyNot()
	for _, want := range []string{
		"why not: ",
		"minimal unsat core — removing these input constraints makes the spec satisfiable:\n  - hwloc2@1.7 (version constraint on hwloc2)",
		"implication trail:",
		"greedy pass conflicts:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("WhyNot missing %q:\n%s", want, got)
		}
	}
	if strings.HasSuffix(got, "\n") {
		t.Error("WhyNot should not end with a newline")
	}
}

// pinEnv is a two-package repository for the WhyNot pin test: vapp needs
// vlib@1.0 with its shared variant on.
func pinEnv() *Concretizer {
	r := repo.NewRepo("test")
	r.MustAdd(pkg.New("vlib").Describe("lib").WithVersion("1.0", "x").
		WithVariant("shared", true, "shared libraries"))
	r.MustAdd(pkg.New("vapp").Describe("app").WithVersion("1.0", "x").
		DependsOn("vlib@1.0+shared"))
	return New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
}

// TestWhyNotPinned pins the whole rendered "why not" chain, byte for byte,
// for UNSAT inputs in both modes: any change to the cause line, the core,
// or the implication trail (its lines and their order) shows here.
func TestWhyNotPinned(t *testing.T) {
	cases := []struct {
		name      string
		env       func() *Concretizer
		backtrack bool
		expr      string
		want      string
	}{
		{
			name: "unknown compiler",
			env:  testEnv,
			expr: "libelf%craycc",
			want: `why not: concretize "libelf%craycc": no registered compiler satisfies %craycc for libelf on linux-x86_64
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - libelf%craycc (compiler constraint on libelf)
implication trail:
  reify: 1 package domains, 0/3 virtuals reachable
  prune: virtual blas unreachable from libelf
  prune: virtual lapack unreachable from libelf
  prune: virtual mpi unreachable from libelf
  greedy pass conflicts: concretize "libelf%craycc": no registered compiler satisfies %craycc for libelf on linux-x86_64`,
		},
		{
			name:      "version pin, backtracking",
			env:       backtrackEnv,
			backtrack: true,
			expr:      "ptool ^hwloc2@1.7",
			want: `why not: concretize "ptool ^hwloc2@1.7": spec: conflicting version for package hwloc2: "1.7" vs "1.9"
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - hwloc2@1.7 (version constraint on hwloc2)
implication trail:
  reify: hwloc2@1.7 extrapolated (unknown exact version)
  reify: 4 package domains, 1/1 virtuals reachable
  greedy pass conflicts: concretize "ptool ^hwloc2@1.7": spec: conflicting version for package hwloc2: "1.7" vs "1.9"
  decide: net -> aaanet
  retract: net -> aaanet (concretize "ptool ^hwloc2@1.7": spec: conflicting version for package hwloc2: "1.7" vs "1.9")
  decide: net -> bbbnet
  retract: net -> bbbnet (concretize "ptool ^hwloc2@1.7": spec: conflicting version for package hwloc2: "1.7" vs "1.9")`,
		},
		{
			name: "variant conflict",
			env:  pinEnv,
			expr: "vapp ^vlib~shared",
			want: `why not: concretize "vapp ^vlib~shared": spec: conflicting variant shared for package vlib: "~shared" vs "+shared"
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - vlib~shared (variant constraint on vlib)
implication trail:
  reify: 2 package domains, 0/0 virtuals reachable
  greedy pass conflicts: concretize "vapp ^vlib~shared": spec: conflicting variant shared for package vlib: "~shared" vs "+shared"`,
		},
		{
			name: "extrapolated exact version",
			env:  pinEnv,
			expr: "vapp ^vlib@1.5",
			want: `why not: concretize "vapp ^vlib@1.5": spec: conflicting version for package vlib: "1.5" vs "1.0"
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - vlib@1.5 (version constraint on vlib)
implication trail:
  reify: vlib@1.5 extrapolated (unknown exact version)
  reify: 2 package domains, 0/0 virtuals reachable
  greedy pass conflicts: concretize "vapp ^vlib@1.5": spec: conflicting version for package vlib: "1.5" vs "1.0"`,
		},
		{
			// Two extrapolated pins: their trail lines come in name order.
			name: "two extrapolated exact versions",
			env:  pinEnv,
			expr: "vapp@2.0 ^vlib@1.5",
			want: `why not: concretize "vapp@2.0 ^vlib@1.5": spec: conflicting version for package vlib: "1.5" vs "1.0"
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - vlib@1.5 (version constraint on vlib)
implication trail:
  reify: vapp@2.0 extrapolated (unknown exact version)
  reify: vlib@1.5 extrapolated (unknown exact version)
  reify: 2 package domains, 0/0 virtuals reachable
  greedy pass conflicts: concretize "vapp@2.0 ^vlib@1.5": spec: conflicting version for package vlib: "1.5" vs "1.0"`,
		},
		{
			name: "empty version domain",
			env:  pinEnv,
			expr: "vapp ^vlib@2:",
			want: `why not: concretize "vapp ^vlib@2:": spec: conflicting version for package vlib: "2:" vs "1.0"
minimal unsat core — removing these input constraints makes the spec satisfiable:
  - vlib@2: (version constraint on vlib)
implication trail:
  reify: 2 package domains, 0/0 virtuals reachable
  unit: vlib has an empty version domain
  greedy pass conflicts: concretize "vapp ^vlib@2:": spec: conflicting version for package vlib: "2:" vs "1.0"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.env()
			c.Backtracking = tc.backtrack
			_, err := c.Concretize(syntax.MustParse(tc.expr))
			var unsat *UnsatError
			if !errors.As(err, &unsat) {
				t.Fatalf("want UnsatError, got %v", err)
			}
			if got := unsat.WhyNot(); got != tc.want {
				t.Errorf("WhyNot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestDirectiveConflictNoCore: a conflict between package directives alone
// (no input constraint to blame) reports the plain error, not an UnsatError.
func TestDirectiveConflictNoCore(t *testing.T) {
	r := repo.NewRepo("test")
	r.MustAdd(pkg.New("liba").Describe("a").WithVersion("1.0", "x").DependsOn("common@1.0"))
	r.MustAdd(pkg.New("libb").Describe("b").WithVersion("1.0", "x").DependsOn("common@2.0"))
	r.MustAdd(pkg.New("common").Describe("c").WithVersion("1.0", "x").WithVersion("2.0", "x"))
	r.MustAdd(pkg.New("app").Describe("app").WithVersion("1.0", "x").
		DependsOn("liba").DependsOn("libb"))
	c := New(repo.NewPath(r), config.New(), compiler.LLNLRegistry())
	c.Backtracking = true
	_, err := c.Concretize(syntax.MustParse("app"))
	if err == nil {
		t.Fatal("app should be UNSAT")
	}
	var unsat *UnsatError
	if errors.As(err, &unsat) {
		t.Errorf("directive-level conflict should not grow a core, got %v", unsat.CoreStrings())
	}
}
