package vdms

import "vdtuner/internal/index"

// The simulated clock. Every index operation reports work counts
// (index.Stats); this file converts work into deterministic nanoseconds.
// Constants are calibrated so that a mid-sized configuration lands in the
// latency/QPS regime the paper reports, but only the *relative* shape of
// the surface matters for tuning; see DESIGN.md.
const (
	// nsPerFullDim is the cost of one dimension of a full-precision
	// distance computation (inflated relative to real silicon so that
	// compute dominates fixed overheads at the scaled-down corpus size).
	nsPerFullDim = 3.0
	// nsPerCodeDim is the cost of one dimension of a quantized-domain
	// computation (byte-wide traffic).
	nsPerCodeDim = 1.35
	// nsPerLookup is the cost of one PQ ADC table lookup.
	nsPerLookup = 1.8
	// nsSegmentDispatch is the per-segment task dispatch overhead of the
	// query pipeline.
	nsSegmentDispatch = 8_000
	// cacheMissPenalty is the extra cost of a cold candidate access, and
	// queryMissMult a query's multiplier with 30 % of index data hot.
	cacheMissPenalty = 1.5
	queryMissMult    = 1 + cacheMissPenalty*(1-0.3)
	// parallelCoordCost is the coordination overhead fraction added per
	// worker (Amdahl-style diminishing returns).
	parallelCoordCost = 0.02
	// simBuildFactor stretches build work into "server minutes" so that
	// build cost matters the way it does in the paper's testbed (index
	// rebuilds dominate tuning time, Table VI).
	simBuildFactor = 60.0
	// ingestFraction is the steady-state insert rate of the modeled
	// workload, as a fraction of the corpus per second. It drives the
	// consistency and flush models.
	ingestFraction = 0.002
	// replayTimeoutSec mirrors the paper's 15-minute replay limit; a
	// configuration whose simulated replay exceeds it is failed.
	replayTimeoutSec = 900.0
	// memBudgetMultiple caps memory at this multiple of the raw corpus
	// size (standing in for the testbed's 125 GB); beyond it the
	// configuration fails with OOM.
	memBudgetMultiple = 24.0
	// maxSegments caps the segment count; beyond it the coordinator
	// "crashes" (mirrors configurations that crash Milvus).
	maxSegments = 512
)

// workNanos converts index work counts into nanoseconds for vectors of the
// given dimension.
func workNanos(st index.Stats, dim int) float64 {
	return float64(st.DistComps)*float64(dim)*nsPerFullDim +
		float64(st.CodeComps)*float64(dim)*nsPerCodeDim +
		float64(st.Lookups)*nsPerLookup
}

// queryLatencySec converts one query's work into simulated seconds under
// the configured parallelism and system-level overheads.
//
// The model: segment scans parallelize across min(P, segments) workers
// with a coordination tax that grows with P; each segment costs a dispatch
// overhead; bounded consistency adds a sync wait when gracefulTime is
// below the required staleness window; background index builds steal a
// share of the workers.
func queryLatencySec(workNs float64, segments int, cfg *Config, syncWaitMs, bgLoad float64) float64 {
	p := float64(cfg.Parallelism)
	eff := p
	if s := float64(segments); s < eff {
		eff = s
	}
	if eff < 1 {
		eff = 1
	}
	// Background builds consume bgLoad worker-equivalents.
	avail := eff * (1 - clamp(bgLoad/p, 0, 0.8))
	if avail < 0.25 {
		avail = 0.25
	}
	computeNs := workNs / avail * (1 + parallelCoordCost*p)
	dispatchNs := float64(segments) * nsSegmentDispatch / eff
	return computeNs/1e9 + dispatchNs/1e9 + syncWaitMs/1e3
}

// syncWaitMs models the bounded-consistency wait (Milvus gracefulTime).
// The system needs a staleness window of requiredMs to avoid blocking on
// sync; configurations with gracefulTime below it pay the difference, and
// very large windows pay a small bookkeeping cost.
func syncWaitMs(cfg *Config, pendingFraction float64) float64 {
	requiredMs := 40 + 800*pendingFraction
	wait := 0.0
	if cfg.GracefulTime < requiredMs {
		wait += (requiredMs - cfg.GracefulTime) * 0.6
	}
	wait += cfg.GracefulTime * 0.00005
	return wait
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
