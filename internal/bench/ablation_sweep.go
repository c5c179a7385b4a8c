package bench

import (
	"io"

	"vdtuner/internal/core"
	"vdtuner/internal/workload"
)

// AblationRow is the outcome of one tuner configuration in the design
// sweep.
type AblationRow struct {
	Variant string
	// BestQPS09 is the best QPS at recall > 0.9.
	BestQPS09 float64
	// RecommendSeconds is the total wall-clock recommendation time.
	RecommendSeconds float64
}

// DesignAblations sweeps VDTuner's own hyperparameters — the design
// choices DESIGN.md calls out beyond the paper's two ablations: abandon
// window length, acquisition candidate budget, and exact vs Monte Carlo
// EHVI. It reports final quality and recommendation overhead per variant.
func DesignAblations(w io.Writer, o Options) ([]AblationRow, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default (window=10, cands=160, exact EHVI)", core.Options{Seed: o.Seed}},
		{"abandon window=3", core.Options{Seed: o.Seed, AbandonWindow: 3}},
		{"abandon window=25", core.Options{Seed: o.Seed, AbandonWindow: 25}},
		{"candidates=32", core.Options{Seed: o.Seed, Candidates: 32}},
		{"candidates=512", core.Options{Seed: o.Seed, Candidates: 512}},
		{"Monte Carlo EHVI (48 samples)", core.Options{Seed: o.Seed, MonteCarloEHVI: true}},
	}
	var rows []AblationRow
	fprintf(w, "Design ablations on %s (%d iters)\n", ds.Name, o.iters())
	fprintf(w, "%-44s %14s %16s\n", "variant", "QPS@rec>0.9", "recommend (s)")
	for _, v := range variants {
		tr := Run(ds, core.New(v.opts), o.iters())
		qps, _ := tr.BestQPSUnderRecall(0.9)
		row := AblationRow{
			Variant:          v.name,
			BestQPS09:        qps,
			RecommendSeconds: tr.TotalRecommendSeconds(),
		}
		rows = append(rows, row)
		fprintf(w, "%-44s %14.1f %16.2f\n", row.Variant, row.BestQPS09, row.RecommendSeconds)
	}
	return rows, nil
}
