// Package bench is the experiment harness: it drives tuning methods
// against the engine and regenerates every table and figure of the
// paper's evaluation (§V). Each Figure*/Table* function prints the same
// rows/series the paper reports and returns the underlying data for
// programmatic checks. See DESIGN.md for the experiment index.
package bench

import (
	"fmt"
	"io"
	"time"

	"vdtuner/internal/core"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// Method is the tuning interface every optimizer implements (VDTuner, its
// ablations, and the four baselines).
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Next proposes the next configuration to evaluate.
	Next() vdms.Config
	// Observe feeds back the evaluation result of the last proposal.
	Observe(cfg vdms.Config, res vdms.Result)
}

// IterRecord is one tuning iteration in a trace.
type IterRecord struct {
	Iter   int
	Config vdms.Config
	Result vdms.Result
	// RecommendSeconds is the wall-clock time the method spent choosing
	// this configuration (paper Table VI "Configuration Recommendation").
	RecommendSeconds float64
	// ReplaySeconds is the simulated workload-replay time of this
	// iteration (paper Table VI "Workload Replay").
	ReplaySeconds float64
}

// Trace is a completed tuning run.
type Trace struct {
	Method  string
	Dataset string
	Records []IterRecord
}

// Run drives method m for iters iterations against ds, recording wall
// recommendation time and simulated replay time per iteration.
func Run(ds *workload.Dataset, m Method, iters int) *Trace {
	tr := &Trace{Method: m.Name(), Dataset: ds.Name}
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		cfg := m.Next()
		rec := time.Since(t0).Seconds()
		res := vdms.Evaluate(ds, cfg)
		m.Observe(cfg, res)
		tr.Records = append(tr.Records, IterRecord{
			Iter: i, Config: cfg, Result: res,
			RecommendSeconds: rec,
			ReplaySeconds:    res.ReplaySeconds,
		})
	}
	return tr
}

// BestQPSUnderRecall returns the best QPS among iterations whose recall
// strictly exceeds floor; ok is false when none qualifies.
func (tr *Trace) BestQPSUnderRecall(floor float64) (float64, bool) {
	best, found := 0.0, false
	for _, r := range tr.Records {
		if r.Result.Failed || r.Result.Recall <= floor {
			continue
		}
		if r.Result.QPS > best {
			best = r.Result.QPS
			found = true
		}
	}
	return best, found
}

// BestCurve returns the best-so-far QPS per iteration under a recall
// floor (zero until the first feasible observation) — the series of
// Figures 7 and 12.
func (tr *Trace) BestCurve(floor float64) []float64 {
	out := make([]float64, len(tr.Records))
	best := 0.0
	for i, r := range tr.Records {
		if !r.Result.Failed && r.Result.Recall > floor && r.Result.QPS > best {
			best = r.Result.QPS
		}
		out[i] = best
	}
	return out
}

// ItersToReach returns the first iteration index (1-based) at which the
// best-so-far QPS under floor reaches target, or 0 if never.
func (tr *Trace) ItersToReach(target, floor float64) int {
	for i, v := range tr.BestCurve(floor) {
		if v >= target {
			return i + 1
		}
	}
	return 0
}

// SimTimeToReach returns the cumulative simulated tuning time (replay
// seconds) up to the first iteration reaching target under floor, or 0 if
// never reached.
func (tr *Trace) SimTimeToReach(target, floor float64) float64 {
	it := tr.ItersToReach(target, floor)
	if it == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range tr.Records[:it] {
		sum += r.ReplaySeconds
	}
	return sum
}

// TotalRecommendSeconds sums the method's wall-clock recommendation time.
func (tr *Trace) TotalRecommendSeconds() float64 {
	sum := 0.0
	for _, r := range tr.Records {
		sum += r.RecommendSeconds
	}
	return sum
}

// TotalReplaySeconds sums the simulated replay time.
func (tr *Trace) TotalReplaySeconds() float64 {
	sum := 0.0
	for _, r := range tr.Records {
		sum += r.ReplaySeconds
	}
	return sum
}

// Observations converts a trace into core observations (QPS/recall
// objectives), for Pareto analysis shared with the tuner's reporting.
func (tr *Trace) Observations() []core.Observation {
	out := make([]core.Observation, 0, len(tr.Records))
	for _, r := range tr.Records {
		out = append(out, core.Observation{
			Config: r.Config, Type: r.Config.IndexType,
			ObjA: r.Result.QPS, ObjB: r.Result.Recall, Result: r.Result,
		})
	}
	return out
}

// Options controls experiment scale so the suite can run from quick tests
// (small Scale/Iters) to full reproductions.
type Options struct {
	// Scale shrinks or grows the generated datasets (1.0 = defaults).
	Scale workload.Scale
	// Iters is the tuning iteration budget per method (paper: 200).
	Iters int
	// Seed drives all methods.
	Seed int64
}

func (o Options) scale() workload.Scale {
	if o.Scale == 0 {
		return 0.25
	}
	return o.Scale
}

func (o Options) iters() int {
	if o.Iters == 0 {
		return 60
	}
	return o.Iters
}

// Sacrifices are the recall-sacrifice levels of Figures 6–8: recall floor
// is 1 − sacrifice.
var Sacrifices = []float64{0.15, 0.125, 0.1, 0.075, 0.05, 0.025, 0.01}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
