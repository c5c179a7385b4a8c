package online

import (
	"fmt"

	"vdtuner/internal/core"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

const (
	// sampleSize is how many live vectors each window's evaluation
	// dataset samples from the collection.
	sampleSize = 2000
	// evalK is the evaluation recall depth.
	evalK = 10
)

// Daemon closes the tuner→engine loop on a live collection: it watches
// the query windows the engine actually serves, tunes once up front,
// re-tunes (warm-started) when the workload drifts, and applies the
// winning configuration back to the engine through Reconfigure — hot
// knobs as an atomic generation swap, cold knobs (only when explicitly
// allowed) as an online migration. Evaluation happens off the serving
// path: each window is scored against a Dataset built from a sample of
// the live corpus, so candidate configurations are measured on a replica
// of the real data, never by degrading live traffic. The daemon runs in
// the process that serves the collection (vdmsd -tune) and calls it
// directly.
//
// Daemon is not safe for concurrent use; drive it from one goroutine
// (the serving path it observes can be arbitrarily concurrent).
type Daemon struct {
	coll     *vdms.Collection
	opts     DaemonOptions
	detector driftDetector

	kb       []core.Observation // every session's observations, the next session's bootstrap
	best     vdms.Config        // the deployed configuration
	haveBest bool               // false until the first window has been tuned
	retunes  int                // drift-triggered sessions run
	sessions int
}

// DaemonOptions configures a tuning daemon.
type DaemonOptions struct {
	// Tuning configures the underlying VDTuner sessions.
	Tuning core.Options
	// InitialIters is the cold-start tuning budget; a drift-triggered
	// re-tune (bootstrapped, so it can be smaller) runs half of it,
	// rounded up. Zero means 40.
	InitialIters int
	// ApplyColdChanges permits the daemon to apply cold-knob winners
	// (index type, build parameters, segment sizing, shard count), which
	// trigger an online migration. When false — the default — cold knobs
	// are grafted from the active configuration before applying, so every
	// application is a pure hot swap.
	ApplyColdChanges bool
}

func (o *DaemonOptions) initialIters() int {
	if o.InitialIters <= 0 {
		return 40
	}
	return o.InitialIters
}

// DaemonReport is the outcome of one observed window.
type DaemonReport struct {
	// Result is the deployed configuration's performance on the window.
	Result vdms.Result
	// DriftScore is the detector's score for the window.
	DriftScore float64
	// Retuned reports whether this window triggered re-tuning (the
	// Result is measured with the new configuration when it did).
	Retuned bool
	// Applied reports whether this window changed the engine's
	// configuration (the first window always does).
	Applied bool
	// Migrated reports whether the application involved a cold-knob
	// migration rather than a hot swap.
	Migrated bool
	// Generation is the engine's config generation after this window.
	Generation uint64
}

// NewDaemon creates a tuning daemon bound to a live in-process
// collection.
func NewDaemon(coll *vdms.Collection, opts DaemonOptions) *Daemon {
	return &Daemon{coll: coll, opts: opts}
}

// ObserveWindow processes one served query window: build an evaluation
// dataset from a live corpus sample plus the window, cold-start or
// drift-retune on it, and push any new winner into the engine via
// Reconfigure.
func (d *Daemon) ObserveWindow(queries [][]float32) (*DaemonReport, error) {
	sample := d.coll.SampleVectors(sampleSize)
	if len(sample) == 0 {
		return nil, fmt.Errorf("online: engine holds no vectors to evaluate against")
	}
	ds, err := workload.FromLive("live-window", d.coll.Metric(), sample, queries, evalK)
	if err != nil {
		return nil, err
	}
	prevBest, hadBest := d.best, d.haveBest
	rep, err := d.step(ds)
	if err != nil {
		return nil, err
	}
	rep.Generation = d.coll.Stats().ConfigGeneration
	if hadBest && d.best == prevBest {
		return rep, nil // nothing new to apply
	}

	active := d.coll.Config()
	apply := d.best
	if !d.opts.ApplyColdChanges {
		apply = vdms.GraftColdKnobs(apply, active)
	}
	rep.Migrated = vdms.GraftColdKnobs(apply, active) != apply
	gen, err := d.coll.Reconfigure(apply)
	if err != nil {
		return rep, fmt.Errorf("online: applying tuned configuration: %w", err)
	}
	rep.Applied = true
	rep.Generation = gen
	return rep, nil
}

// step serves one evaluation window: score it for drift, tune cold on
// the first window or re-tune (warm-started) if it drifted, and evaluate
// the deployed configuration on it.
func (d *Daemon) step(ds *workload.Dataset) (*DaemonReport, error) {
	score, drifted, err := d.detector.Observe(ds.Queries)
	if err != nil {
		return nil, err
	}
	rep := &DaemonReport{DriftScore: score}
	if !d.haveBest {
		if err := d.tune(ds, d.opts.initialIters()); err != nil {
			return nil, err
		}
	} else if drifted {
		// The knowledge base was collected on the old workload; keep it
		// as a prior but re-measure with a fresh session on the new one.
		if err := d.tune(ds, (d.opts.initialIters()+1)/2); err != nil {
			return nil, err
		}
		d.retunes++
		rep.Retuned = true
	}
	rep.Result = vdms.Evaluate(ds, d.best)
	return rep, nil
}

// tune runs a tuning session of the given budget against ds and deploys
// the best configuration found. Sessions after the first are warm-started
// from the accumulated knowledge base.
func (d *Daemon) tune(ds *workload.Dataset, iters int) error {
	opts := d.opts.Tuning
	opts.Seed += int64(d.sessions) * 101
	opts.Bootstrap = d.kb
	d.sessions++
	tn := core.New(opts)
	for i := 0; i < iters; i++ {
		cfg := tn.Next()
		tn.Observe(cfg, vdms.Evaluate(ds, cfg))
	}
	d.kb = tn.Observations()

	best, ok := tn.BestUnderRecall(opts.RecallFloor)
	if !ok {
		best, ok = tn.BestUnderRecall(0)
	}
	if !ok {
		return fmt.Errorf("online: tuning session found no usable configuration")
	}
	d.best = best.Config
	d.haveBest = true
	return nil
}
