package repro

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
)

// updateGolden rewrites testdata/golden_solve_hashes.json from the current
// solver instead of comparing against it:
//
//	go test -run TestGoldenSolveHashes -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_solve_hashes.json")

const goldenSolveFile = "testdata/golden_solve_hashes.json"

// goldenSolve is the recorded output of the solver: the FullHash of every
// concretized DAG, keyed by the abstract input.
type goldenSolve struct {
	// Fig8 maps each package of the 245-package Fig. 8 repository to the
	// hash of its greedy, reuse-free concretization.
	Fig8 map[string]string `json:"fig8"`
	// ARESGreedy maps each of the 36 Table 3 configurations to its
	// greedy, reuse-free concretization.
	ARESGreedy map[string]string `json:"ares_greedy"`
	// ARESReuse maps the same 36 configurations to their concretization
	// with Reuse pointed at all 36 greedy results, the setup of
	// BenchmarkARESConcretizeReuse.
	ARESReuse map[string]string `json:"ares_reuse"`
}

// solveGolden concretizes the three golden workloads.
func solveGolden(t *testing.T) goldenSolve {
	t.Helper()
	got := goldenSolve{Fig8: map[string]string{}, ARESGreedy: map[string]string{}, ARESReuse: map[string]string{}}

	fig8 := fig8Path()
	c := concretize.New(fig8, config.New(), compiler.LLNLRegistry())
	for _, name := range fig8.Names() {
		out, err := c.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("fig8 %s: %v", name, err)
		}
		got.Fig8[name] = out.FullHash()
	}

	path := repo.NewPath(ares.Repo(), repo.Builtin())
	cold := concretize.New(path, config.New(), compiler.LLNLRegistry())
	src := &memSource{fp: "ares-full", cands: map[string]*spec.Spec{}}
	entries := ares.MatrixEntries()
	for _, e := range entries {
		expr := ares.SpecFor(e.Cell, e.Config)
		out, err := cold.Concretize(e.Abstract)
		if err != nil {
			t.Fatalf("greedy %s: %v", expr, err)
		}
		got.ARESGreedy[expr] = out.FullHash()
		src.cands[out.FullHash()] = out
	}
	warm := concretize.New(path, config.New(), compiler.LLNLRegistry())
	warm.Reuse = src
	for _, e := range entries {
		expr := ares.SpecFor(e.Cell, e.Config)
		out, err := warm.Concretize(e.Abstract)
		if err != nil {
			t.Fatalf("reuse %s: %v", expr, err)
		}
		got.ARESReuse[expr] = out.FullHash()
	}
	return got
}

// TestGoldenSolveHashes pins the solver's output: every DAG hash of the
// Fig. 8 sweep and of the ARES matrix, greedy and with reuse, must equal
// the recorded one. The parity tests compare code paths that change
// together; this test compares against a fixed record.
func TestGoldenSolveHashes(t *testing.T) {
	got := solveGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSolveFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenSolveFile)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenSolve
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want map[string]string
		size      int
	}{
		{"fig8", got.Fig8, want.Fig8, 245},
		{"ares_greedy", got.ARESGreedy, want.ARESGreedy, 36},
		{"ares_reuse", got.ARESReuse, want.ARESReuse, 36},
	} {
		if len(tc.want) != tc.size {
			t.Errorf("%s: %d recorded hashes, want %d", tc.name, len(tc.want), tc.size)
		}
		for in, h := range tc.want {
			if tc.got[in] != h {
				t.Errorf("%s %q: hash %s, recorded %s", tc.name, in, tc.got[in], h)
			}
		}
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: solved %d inputs, recorded %d", tc.name, len(tc.got), len(tc.want))
		}
	}
}
