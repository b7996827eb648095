package solve

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// TestCompareProviders: the lexicographic criteria — reuse outranks policy
// rank, rank outranks name, name breaks ties deterministically.
func TestCompareProviders(t *testing.T) {
	cases := []struct {
		name string
		a, b Provider
		want int // sign only
	}{
		{"reused wins over rank", Provider{Name: "z", Rank: 9, Reused: true}, Provider{Name: "a", Rank: 0}, -1},
		{"rank wins over name", Provider{Name: "z", Rank: 0}, Provider{Name: "a", Rank: 1}, -1},
		{"name breaks ties", Provider{Name: "a"}, Provider{Name: "b"}, -1},
		{"equal", Provider{Name: "a"}, Provider{Name: "a"}, 0},
	}
	for _, c := range cases {
		got := CompareProviders(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("%s: CompareProviders = %d, want sign %d", c.name, got, c.want)
		}
		if c.want != 0 && sign(CompareProviders(c.b, c.a)) != -c.want {
			t.Errorf("%s: comparison not antisymmetric", c.name)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestRankProviders(t *testing.T) {
	ps := []Provider{
		{Name: "mvapich", Rank: 2},
		{Name: "openmpi", Rank: 1 << 20},
		{Name: "mpich", Rank: 1 << 20, Reused: true},
		{Name: "cray-mpi", Rank: 1},
	}
	RankProviders(ps)
	want := []string{"mpich", "cray-mpi", "mvapich", "openmpi"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("rank order = %v, want %v", names(ps), want)
		}
	}
}

func names(ps []Provider) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestMinimizeCoreMinimal: with two independent conflicts among three
// candidate facts, the core keeps exactly the conflicting two.
func TestMinimizeCoreMinimal(t *testing.T) {
	facts := []Fact{
		{ID: 0, Detail: "a@1"},
		{ID: 1, Detail: "b@2"},
		{ID: 2, Detail: "c@3"},
	}
	// SAT iff both fact 0 and fact 2 are removed; fact 1 is innocent.
	satWithout := func(removed []Fact) bool {
		gone := map[int]bool{}
		for _, f := range removed {
			gone[f.ID] = true
		}
		return gone[0] && gone[2]
	}
	core := MinimizeCore(facts, satWithout)
	got := map[int]bool{}
	for _, f := range core {
		got[f.ID] = true
	}
	if !reflect.DeepEqual(got, map[int]bool{0: true, 2: true}) {
		t.Errorf("core = %v, want facts 0 and 2", core)
	}
}

// TestMinimizeCoreDirectiveConflict: when removing everything still leaves
// the problem UNSAT (the conflict lives in package directives, not the
// input), there is no core.
func TestMinimizeCoreDirectiveConflict(t *testing.T) {
	facts := []Fact{{ID: 0}, {ID: 1}}
	if core := MinimizeCore(facts, func([]Fact) bool { return false }); core != nil {
		t.Errorf("core = %v, want nil for a directive-level conflict", core)
	}
}

// TestMinimizeCoreAlreadySat: if the empty removal set repairs the problem
// the input constraints are not to blame — no core.
func TestMinimizeCoreAlreadySat(t *testing.T) {
	facts := []Fact{{ID: 0}}
	if core := MinimizeCore(facts, func([]Fact) bool { return true }); core != nil {
		t.Errorf("core = %v, want nil when even the empty removal repairs", core)
	}
}

func TestMinimizeCoreEmptyCandidates(t *testing.T) {
	if core := MinimizeCore(nil, func([]Fact) bool { return true }); core != nil {
		t.Errorf("core = %v, want nil for no candidates", core)
	}
}

// TestTrailNilSafe: a nil trail swallows writes, so hot paths need no guard.
func TestTrailNilSafe(t *testing.T) {
	var tr *Trail
	tr.Addf("ignored %d", 1)
	if lines := tr.Lines(); lines != nil {
		t.Errorf("nil trail lines = %v", lines)
	}
	tr = NewTrail()
	tr.Addf("a %d", 1)
	tr.Addf("b")
	if got := tr.Lines(); !reflect.DeepEqual(got, []string{"a 1", "b"}) {
		t.Errorf("lines = %v", got)
	}
}

// scriptedEval returns an Eval that fails a fixed number of leading
// attempts, and the record of each attempt's forced assignment.
func scriptedEval(failures int) (func(map[string]string) (*spec.Spec, error), *[]map[string]string) {
	var calls []map[string]string
	eval := func(forced map[string]string) (*spec.Spec, error) {
		cp := make(map[string]string, len(forced))
		for k, v := range forced {
			cp[k] = v
		}
		calls = append(calls, cp)
		if len(calls) <= failures {
			return nil, errors.New("conflict")
		}
		return spec.New("ok"), nil
	}
	return eval, &calls
}

// errGreedy stands for the conflict of the greedy leaf the caller evaluated.
var errGreedy = errors.New("greedy conflict")

func testProblem() *Problem {
	return &Problem{
		Root: "root",
		Virtuals: []VirtualFacts{
			{Name: "mpi", Reachable: true, Providers: []Provider{{Name: "openmpi"}, {Name: "mpich"}}},
			{Name: "blas", Reachable: false, Providers: []Provider{{Name: "openblas"}}},
		},
	}
}

// TestSearchGreedyFirst: the solver starts from the greedy conflict its
// caller hands over. The first leaf it evaluates forces nothing, like the
// greedy leaf, and the conflict opens the trail's search section.
func TestSearchGreedyFirst(t *testing.T) {
	eval, calls := scriptedEval(0)
	tr := NewTrail()
	s := &Solver{Problem: testProblem(), Eval: eval, Trail: tr, Branch: true}
	if _, err := s.Search(errGreedy); err != nil {
		t.Fatal(err)
	}
	if len(*calls) != 1 || len((*calls)[0]) != 0 {
		t.Errorf("made %d calls, first forced %v; want one unforced call", len(*calls), (*calls)[0])
	}
	want := []string{
		"prune: virtual blas unreachable from root",
		"greedy pass conflicts: greedy conflict",
	}
	if got := tr.Lines(); !reflect.DeepEqual(got, want) {
		t.Errorf("trail = %q, want %q", got, want)
	}
}

// TestSearchBacktracks: after a greedy conflict, branching explores
// provider assignments in criteria order; every evaluation is a backtrack.
func TestSearchBacktracks(t *testing.T) {
	eval, calls := scriptedEval(2)
	tr := NewTrail()
	s := &Solver{Problem: testProblem(), Eval: eval, Trail: tr, Branch: true}
	if _, err := s.Search(errGreedy); err != nil {
		t.Fatal(err)
	}
	// Unforced, then openmpi (fails), then mpich (succeeds).
	want := []map[string]string{{}, {"mpi": "openmpi"}, {"mpi": "mpich"}}
	if !reflect.DeepEqual(*calls, want) {
		t.Errorf("attempts = %v, want %v", *calls, want)
	}
	// Only the reachable virtual is branched on; the unreachable one never
	// appears in a forced assignment.
	for _, call := range *calls {
		if _, ok := call["blas"]; ok {
			t.Errorf("unreachable virtual was branched on: %v", call)
		}
	}
	if !containsLine(tr.Lines(), "prune: virtual blas unreachable from root") {
		t.Errorf("trail missing prune line: %v", tr.Lines())
	}
}

// TestSearchExhaustionReportsGreedyError: on a fully UNSAT instance the
// greedy conflict is what the caller sees, not the last leaf's.
func TestSearchExhaustionReportsGreedyError(t *testing.T) {
	eval, _ := scriptedEval(1 << 10)
	s := &Solver{Problem: testProblem(), Eval: eval, Branch: true}
	_, err := s.Search(errGreedy)
	if !errors.Is(err, errGreedy) {
		t.Errorf("err = %v, want the greedy conflict", err)
	}
}

// TestSearchNoBranch: without Branch the greedy conflict is reported and
// nothing is evaluated.
func TestSearchNoBranch(t *testing.T) {
	eval, calls := scriptedEval(0)
	s := &Solver{Problem: testProblem(), Eval: eval}
	if _, err := s.Search(errGreedy); !errors.Is(err, errGreedy) {
		t.Fatalf("greedy-only solver returned %v, want the greedy conflict", err)
	}
	if len(*calls) != 0 {
		t.Errorf("greedy-only solver made %d calls", len(*calls))
	}
}

func containsLine(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}
