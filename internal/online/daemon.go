package online

import (
	"fmt"

	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// Daemon closes the tuner→engine loop on a live collection: it watches
// the query windows the engine actually serves, re-tunes (via the
// drift-detecting Manager) when the workload moves, and applies the
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
	coll *vdms.Collection
	mgr  *Manager
	opts DaemonOptions
}

// DaemonOptions configures a tuning daemon.
type DaemonOptions struct {
	// Manager configures the underlying drift-detecting tuning manager.
	Manager ManagerOptions
	// SampleSize is how many live vectors each window's evaluation
	// dataset samples from the collection. Zero means 2000.
	SampleSize int
	// K is the evaluation recall depth. Zero means 10.
	K int
	// ApplyColdChanges permits the daemon to apply cold-knob winners
	// (index type, build parameters, segment sizing, shard count), which
	// trigger an online migration. When false — the default — cold knobs
	// are grafted from the active configuration before applying, so every
	// application is a pure hot swap.
	ApplyColdChanges bool
}

func (o *DaemonOptions) sampleSize() int {
	if o.SampleSize <= 0 {
		return 2000
	}
	return o.SampleSize
}

func (o *DaemonOptions) k() int {
	if o.K <= 0 {
		return 10
	}
	return o.K
}

// DaemonReport is the outcome of one observed window.
type DaemonReport struct {
	// Window is the manager's view: measured performance of the deployed
	// configuration on this window, the drift score, and whether the
	// window triggered re-tuning.
	Window WindowReport
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
	return &Daemon{coll: coll, mgr: NewManager(opts.Manager), opts: opts}
}

// ObserveWindow processes one served query window: build an evaluation
// dataset from a live corpus sample plus the window, let the manager
// cold-start or drift-retune on it, and push any new winner into the
// engine via Reconfigure.
func (d *Daemon) ObserveWindow(queries [][]float32) (*DaemonReport, error) {
	sample := d.coll.SampleVectors(d.opts.sampleSize())
	if len(sample) == 0 {
		return nil, fmt.Errorf("online: engine holds no vectors to evaluate against")
	}
	ds, err := workload.FromLive("live-window", d.coll.Metric(), sample, queries, d.opts.k())
	if err != nil {
		return nil, err
	}
	prevBest, hadBest := d.mgr.Best()
	rep, err := d.mgr.ServeWindow(ds)
	if err != nil {
		return nil, err
	}
	out := &DaemonReport{Window: *rep, Generation: d.coll.Stats().ConfigGeneration}
	best, _ := d.mgr.Best()
	if hadBest && best == prevBest {
		return out, nil // nothing new to apply
	}

	active := d.coll.Config()
	apply := best
	if !d.opts.ApplyColdChanges {
		apply = vdms.GraftColdKnobs(best, active)
	}
	out.Migrated = vdms.GraftColdKnobs(apply, active) != apply
	gen, err := d.coll.Reconfigure(apply)
	if err != nil {
		return out, fmt.Errorf("online: applying tuned configuration: %w", err)
	}
	out.Applied = true
	out.Generation = gen
	return out, nil
}

// Best exposes the manager's currently deployed configuration.
func (d *Daemon) Best() (vdms.Config, bool) { return d.mgr.Best() }

// Retunes reports how many drift-triggered re-tuning sessions have run.
func (d *Daemon) Retunes() int { return d.mgr.Retunes() }
