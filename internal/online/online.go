// Package online implements the paper's stated future-work extension
// (§VII): an online VDTuner that actively captures workload changes. A
// drift detector summarizes successive query windows (centroid and
// per-dimension spread); when the workload moves, the manager re-tunes —
// bootstrapping the new tuning session from the accumulated knowledge
// base so adaptation costs a fraction of a cold start (§IV-F). Daemon runs
// that loop against a live vdms.Collection in the process that serves it
// (vdmsd -tune).
package online

import (
	"fmt"
	"math"

	"vdtuner/internal/core"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// DriftDetector summarizes query windows and scores distribution shift.
// The score combines centroid displacement (relative to the previous
// window's spread) and the per-dimension variance ratio; both are cheap
// and require no labels.
type DriftDetector struct {
	// Threshold above which a window counts as drifted. Zero means 0.25.
	Threshold float64

	prevCentroid []float64
	prevSpread   float64
	initialized  bool
}

func (d *DriftDetector) threshold() float64 {
	if d.Threshold <= 0 {
		return 0.25
	}
	return d.Threshold
}

// Observe ingests one window of query vectors and returns its drift score
// versus the previous window and whether it crosses the threshold. The
// first window initializes the detector and never reports drift.
func (d *DriftDetector) Observe(queries [][]float32) (score float64, drifted bool, err error) {
	if len(queries) == 0 {
		return 0, false, fmt.Errorf("online: empty query window")
	}
	dim := len(queries[0])
	centroid := make([]float64, dim)
	for _, q := range queries {
		if len(q) != dim {
			return 0, false, fmt.Errorf("online: ragged query window")
		}
		for j, v := range q {
			centroid[j] += float64(v)
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(queries))
	}
	var spread float64
	for _, q := range queries {
		var s float64
		for j, v := range q {
			dv := float64(v) - centroid[j]
			s += dv * dv
		}
		spread += s
	}
	spread = math.Sqrt(spread / float64(len(queries)))
	if spread < 1e-12 {
		spread = 1e-12
	}

	if !d.initialized {
		d.prevCentroid = centroid
		d.prevSpread = spread
		d.initialized = true
		return 0, false, nil
	}
	var shift float64
	for j := range centroid {
		dv := centroid[j] - d.prevCentroid[j]
		shift += dv * dv
	}
	shift = math.Sqrt(shift)

	ratio := spread / d.prevSpread
	if ratio < 1 {
		ratio = 1 / ratio
	}
	score = shift/d.prevSpread + (ratio - 1)

	d.prevCentroid = centroid
	d.prevSpread = spread
	return score, score > d.threshold(), nil
}

// ManagerOptions configures an online tuning manager.
type ManagerOptions struct {
	// Tuning configures the underlying VDTuner sessions.
	Tuning core.Options
	// InitialIters is the cold-start tuning budget. Zero means 40.
	InitialIters int
	// RetuneIters is the per-drift re-tuning budget (bootstrapped, so it
	// can be much smaller). Zero means InitialIters/2.
	RetuneIters int
	// Detector configures drift detection.
	Detector DriftDetector
}

func (o *ManagerOptions) initialIters() int {
	if o.InitialIters <= 0 {
		return 40
	}
	return o.InitialIters
}

func (o *ManagerOptions) retuneIters() int {
	if o.RetuneIters > 0 {
		return o.RetuneIters
	}
	return (o.initialIters() + 1) / 2
}

// Manager owns the deployed configuration: it tunes once up front, then
// watches query windows and re-tunes (warm-started) when the workload
// drifts.
type Manager struct {
	opts     ManagerOptions
	detector DriftDetector

	kb       []core.Observation
	best     vdms.Config
	haveBest bool
	retunes  int
	sessions int
}

// NewManager creates an online tuning manager.
func NewManager(opts ManagerOptions) *Manager {
	return &Manager{opts: opts, detector: opts.Detector}
}

// Best returns the currently deployed configuration. ok is false before
// the first Tune.
func (m *Manager) Best() (cfg vdms.Config, ok bool) { return m.best, m.haveBest }

// Retunes reports how many drift-triggered re-tuning sessions have run.
func (m *Manager) Retunes() int { return m.retunes }

// Tune runs a tuning session of the given budget against ds and deploys
// the best configuration found. Sessions after the first are warm-started
// from the accumulated knowledge base.
func (m *Manager) Tune(ds *workload.Dataset, iters int) error {
	opts := m.opts.Tuning
	opts.Seed += int64(m.sessions) * 101
	opts.Bootstrap = m.kb
	m.sessions++
	tn := core.New(opts)
	for i := 0; i < iters; i++ {
		cfg := tn.Next()
		res := vdms.Evaluate(ds, cfg)
		tn.Observe(cfg, res)
	}
	m.kb = tn.Observations()

	floor := m.opts.Tuning.RecallFloor
	best, ok := tn.BestUnderRecall(floor)
	if !ok {
		best, ok = tn.BestUnderRecall(0)
	}
	if !ok {
		return fmt.Errorf("online: tuning session found no usable configuration")
	}
	m.best = best.Config
	m.haveBest = true
	return nil
}

// WindowReport is the outcome of serving one query window.
type WindowReport struct {
	// Result is the deployed configuration's performance on the window.
	Result vdms.Result
	// DriftScore is the detector's score for the window.
	DriftScore float64
	// Retuned reports whether this window triggered re-tuning (the
	// Result is measured with the new configuration when it did).
	Retuned bool
}

// ServeWindow processes one workload window: score it for drift, re-tune
// (warm-started) if it drifted, and evaluate the deployed configuration
// on it. The first call performs the cold-start tuning.
func (m *Manager) ServeWindow(ds *workload.Dataset) (*WindowReport, error) {
	score, drifted, err := m.detector.Observe(ds.Queries)
	if err != nil {
		return nil, err
	}
	rep := &WindowReport{DriftScore: score}
	if !m.haveBest {
		if err := m.Tune(ds, m.opts.initialIters()); err != nil {
			return nil, err
		}
	} else if drifted {
		// The knowledge base was collected on the old workload; keep it
		// as a prior but re-measure with a fresh session on the new one.
		if err := m.Tune(ds, m.opts.retuneIters()); err != nil {
			return nil, err
		}
		m.retunes++
		rep.Retuned = true
	}
	rep.Result = vdms.Evaluate(ds, m.best)
	return rep, nil
}
