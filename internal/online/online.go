// Package online implements the paper's stated future-work extension
// (§VII): an online VDTuner that actively captures workload changes. One
// type, Daemon, runs it against a live vdms.Collection in the process
// that serves it (vdmsd -tune): a drift detector summarizes successive
// query windows (centroid and per-dimension spread); the first window
// tunes cold, and when the workload moves the daemon re-tunes —
// bootstrapping the new session from the accumulated knowledge base so
// adaptation costs a fraction of a cold start (§IV-F) — and applies each
// new winner to the engine.
package online

import (
	"fmt"
	"math"
)

// driftThreshold is the drift score above which a window counts as
// drifted.
const driftThreshold = 0.25

// driftDetector summarizes query windows and scores distribution shift.
// The score combines centroid displacement (relative to the previous
// window's spread) and the per-dimension variance ratio; both are cheap
// and require no labels.
type driftDetector struct {
	prevCentroid []float64
	prevSpread   float64
	initialized  bool
}

// Observe ingests one window of query vectors and returns its drift score
// versus the previous window and whether it crosses the threshold. The
// first window initializes the detector and never reports drift.
func (d *driftDetector) Observe(queries [][]float32) (score float64, drifted bool, err error) {
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
	return score, score > driftThreshold, nil
}
