package bench

import (
	"io"

	"vdtuner/internal/baselines"
	"vdtuner/internal/core"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// newVDTuner builds the full-configuration VDTuner as a Method.
func newVDTuner(seed int64) Method {
	return core.New(core.Options{Seed: seed})
}

// newBaselines builds the paper's four baselines.
func newBaselines(seed int64) []Method {
	return []Method{
		baselines.NewRandom(seed),
		baselines.NewOpenTuner(seed),
		baselines.NewOtterTune(seed, 10),
		baselines.NewQEHVI(seed, 10),
	}
}

// AllMethods is VDTuner plus every baseline, in the paper's order.
func AllMethods(seed int64) []Method {
	return append([]Method{newVDTuner(seed)}, newBaselines(seed)...)
}

// EvalDatasets are the three datasets of Table III.
func EvalDatasets(scale workload.Scale) []workload.Spec {
	return []workload.Spec{
		workload.GloVeLike(scale),
		workload.KeywordLike(scale),
		workload.GeoLike(scale),
	}
}

// Table4Row is one dataset column of Table IV.
type Table4Row struct {
	Dataset string
	// SpeedImprovement is the best QPS gain (%) without sacrificing
	// recall relative to the default configuration.
	SpeedImprovement float64
	// RecallImprovement is the best recall gain (%) without sacrificing
	// search speed.
	RecallImprovement float64
}

// Table4 reproduces Table IV: VDTuner's improvement over the Default
// configuration on the three datasets.
func Table4(w io.Writer, o Options) ([]Table4Row, error) {
	var rows []Table4Row
	fprintf(w, "Table IV: performance improvement by auto-configuration (%d iters)\n", o.iters())
	fprintf(w, "%-16s %18s %18s\n", "dataset", "speed improvement", "recall improvement")
	for _, spec := range EvalDatasets(o.scale()) {
		ds, err := workload.Load(spec)
		if err != nil {
			return nil, err
		}
		def := vdms.Evaluate(ds, vdms.DefaultConfig())
		tr := Run(ds, newVDTuner(o.Seed), o.iters())

		spdImp, recImp := 0.0, 0.0
		for _, r := range tr.Records {
			if r.Result.Failed {
				continue
			}
			if r.Result.Recall >= def.Recall && r.Result.QPS > def.QPS {
				if imp := (r.Result.QPS - def.QPS) / def.QPS * 100; imp > spdImp {
					spdImp = imp
				}
			}
			if r.Result.QPS >= def.QPS && r.Result.Recall > def.Recall {
				if imp := (r.Result.Recall - def.Recall) / def.Recall * 100; imp > recImp {
					recImp = imp
				}
			}
		}
		rows = append(rows, Table4Row{Dataset: ds.Name, SpeedImprovement: spdImp, RecallImprovement: recImp})
		fprintf(w, "%-16s %17.2f%% %17.2f%%\n", ds.Name, spdImp, recImp)
	}
	return rows, nil
}

// Figure6Cell is one (dataset, method, sacrifice) point of Figure 6.
type Figure6Cell struct {
	Dataset   string
	Method    string
	Sacrifice float64
	QPS       float64
	Found     bool
}

// Figure6 compares the best achievable QPS of every method under recall
// sacrifices from 0.15 down to 0.01 on the three datasets.
func Figure6(w io.Writer, o Options) ([]Figure6Cell, error) {
	var cells []Figure6Cell
	fprintf(w, "Figure 6: best QPS under recall sacrifice, %d iters/method\n", o.iters())
	for _, spec := range EvalDatasets(o.scale()) {
		ds, err := workload.Load(spec)
		if err != nil {
			return nil, err
		}
		fprintf(w, "dataset %s\n", ds.Name)
		fprintf(w, "%-26s", "method \\ sacrifice")
		for _, s := range Sacrifices {
			fprintf(w, " %8.3f", s)
		}
		fprintf(w, "\n")
		for _, m := range AllMethods(o.Seed) {
			tr := Run(ds, m, o.iters())
			fprintf(w, "%-26s", m.Name())
			for _, s := range Sacrifices {
				qps, ok := tr.BestQPSUnderRecall(1 - s)
				cells = append(cells, Figure6Cell{
					Dataset: ds.Name, Method: m.Name(), Sacrifice: s, QPS: qps, Found: ok,
				})
				if ok {
					fprintf(w, " %8.1f", qps)
				} else {
					fprintf(w, " %8s", "-")
				}
			}
			fprintf(w, "\n")
		}
	}
	return cells, nil
}

// Figure7Series is one method's best-so-far QPS curve at one recall floor.
type Figure7Series struct {
	Method string
	Floor  float64
	Curve  []float64
	// ItersVsBaseline and TimeVsBaseline compare VDTuner's cost to reach
	// the most competitive baseline's final performance (only filled for
	// the VDTuner row).
	ItersVsBaseline float64
	TimeVsBaseline  float64
}

// Figure7 reproduces the optimization curves on GloVe: best QPS versus
// iteration at recall floors 0.9–0.99, plus the sample/time advantage of
// VDTuner over the most competitive baseline.
func Figure7(w io.Writer, o Options) ([]Figure7Series, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	floors := []float64{0.9, 0.925, 0.95, 0.975, 0.99}
	methods := AllMethods(o.Seed)
	traces := make([]*Trace, len(methods))
	for i, m := range methods {
		traces[i] = Run(ds, m, o.iters())
	}
	var out []Figure7Series
	fprintf(w, "Figure 7: optimization curves on %s (%d iters)\n", ds.Name, o.iters())
	for _, floor := range floors {
		fprintf(w, "recall > %.3f\n", floor)
		// Most competitive baseline final value.
		bestBaseline := 0.0
		for i := 1; i < len(traces); i++ {
			if q, ok := traces[i].BestQPSUnderRecall(floor); ok && q > bestBaseline {
				bestBaseline = q
			}
		}
		for i, tr := range traces {
			s := Figure7Series{Method: tr.Method, Floor: floor, Curve: tr.BestCurve(floor)}
			if i == 0 && bestBaseline > 0 {
				it := tr.ItersToReach(bestBaseline, floor)
				if it > 0 {
					s.ItersVsBaseline = float64(it) / float64(o.iters())
					total := tr.TotalReplaySeconds()
					if total > 0 {
						s.TimeVsBaseline = tr.SimTimeToReach(bestBaseline, floor) / total
					}
				}
			}
			final := 0.0
			if len(s.Curve) > 0 {
				final = s.Curve[len(s.Curve)-1]
			}
			fprintf(w, "  %-26s final %9.1f", s.Method, final)
			if i == 0 && s.ItersVsBaseline > 0 {
				fprintf(w, "  reaches best baseline with %.0f%% of samples, %.0f%% of time",
					s.ItersVsBaseline*100, s.TimeVsBaseline*100)
			}
			fprintf(w, "\n")
			out = append(out, s)
		}
	}
	return out, nil
}
