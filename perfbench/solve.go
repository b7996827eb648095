package main

import (
	"fmt"

	"repro/internal/ares"
	"repro/internal/concretize"
	"repro/internal/repo"
)

// solveW concretizes with the memo cache off: every package of the
// 245-package Fig. 8 repository, the 36 Table 3 configurations, and the
// same 36 again with Reuse pointed at a store holding the installed
// Current configurations.
type solveW struct {
	cold, warm *concretize.Concretizer // warm carries the reuse source
	reuse      *tracedReuse
	exprs      [][]string // per kind
	want       [][]string // expected full hash per kind and input
	items      []item
}

const (
	solveFig8 = iota
	solveTable
	solveReuse
)

func newSolve(seed int64) (workload, error) {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, 245-repo.Builtin().Len()-ares.Repo().Len(), 2015)
	s, err := newSite(seed, nil, ares.Repo(), synth, repo.Builtin())
	if err != nil {
		return nil, err
	}
	w := &solveW{cold: s.conc, reuse: &tracedReuse{inner: s.store}}
	w.warm = concretize.New(s.path, s.cfg, s.reg)
	w.warm.Reuse = w.reuse
	table := tableExprs()
	w.exprs = [][]string{s.path.Names(), table, table}
	// The reference hashes: one untimed solve of every input.
	for k, exprs := range w.exprs {
		var want []string
		for i, expr := range exprs {
			abstract, err := parse(nil, expr)
			if err != nil {
				return nil, err
			}
			out, err := w.conc(k).Concretize(abstract)
			if err != nil {
				return nil, fmt.Errorf("reference solve of %q: %w", expr, err)
			}
			want = append(want, out.FullHash())
			w.items = append(w.items, item{kind: k, input: i})
		}
		w.want = append(w.want, want)
	}
	return w, nil
}

func (w *solveW) conc(kind int) *concretize.Concretizer {
	if kind == solveReuse {
		return w.warm
	}
	return w.cold
}

func (w *solveW) kinds() []string { return []string{"fig8", "table3", "reuse"} }
func (w *solveW) clients() int    { return 1 }
func (w *solveW) corpus() []item  { return w.items }
func (w *solveW) close()          {}

func (w *solveW) do(ot *opTrace, it item) (func() error, error) {
	w.reuse.ot = ot
	abstract, err := parse(ot, w.exprs[it.kind][it.input])
	if err != nil {
		return nil, err
	}
	sp := ot.begin("concretize.solve")
	out, err := w.conc(it.kind).Concretize(abstract)
	ot.end(sp)
	if err != nil {
		return nil, err
	}
	return func() error {
		if got, want := out.FullHash(), w.want[it.kind][it.input]; got != want {
			return fmt.Errorf("%s: full hash %s, set-up solved %s", abstract, got, want)
		}
		return nil
	}, nil
}

func (w *solveW) counters() map[string]float64 {
	return map[string]float64{
		"iterations":    float64(w.cold.Stats.Iterations() + w.warm.Stats.Iterations()),
		"backtracks":    float64(w.cold.Stats.Backtracks() + w.warm.Stats.Backtracks()),
		"solved":        float64(w.cold.Stats.SolvedNodes() + w.warm.Stats.SolvedNodes()),
		"reuse_solved":  float64(w.warm.Stats.SolvedNodes()),
		"reused":        float64(w.warm.Stats.ReusedNodes()),
		"snap_lookups":  float64(w.reuse.lookups.Load()),
		"snap_rebuilds": float64(w.reuse.rebuilds.Load()),
	}
}

func (w *solveW) afterPhase(map[string]float64) error { return nil }

func (w *solveW) layers(p *phase) map[string]float64 {
	d := p.delta
	return map[string]float64{
		"syntax.parse_us":                    1000 * p.layerMS("syntax.parse"),
		"concretize.solve_ms":                p.layerMS("concretize.solve"),
		"concretize.iterations":              d["iterations"],
		"concretize.backtracks":              d["backtracks"],
		"concretize.solved_nodes":            d["solved"],
		"concretize.reused_nodes":            d["reused"],
		"concretize.reuse_ratio":             ratio(d["reused"], d["reuse_solved"]),
		"concretize.reuse_snapshot_ms":       p.layerMS("concretize.reuse_snapshot"),
		"concretize.reuse_snapshot_calls":    d["snap_lookups"],
		"concretize.reuse_snapshot_rebuilds": d["snap_rebuilds"],
	}
}
