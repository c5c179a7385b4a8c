package vdms

import (
	"errors"

	"vdtuner/internal/index"
	"vdtuner/internal/parallel"
	"vdtuner/internal/workload"
)

// Result is the outcome of evaluating one configuration against one
// workload — the observation the tuner learns from.
type Result struct {
	// QPS is the simulated search throughput (requests/second) at the
	// workload's concurrency.
	QPS float64 `json:"qps"`
	// Recall is the mean recall@K across the query set.
	Recall float64 `json:"recall"`
	// MemoryBytes is the engine's resident footprint.
	MemoryBytes int64 `json:"memory_bytes"`
	// BuildSeconds is the simulated data load + index build time.
	BuildSeconds float64 `json:"build_seconds"`
	// ReplaySeconds is the simulated end-to-end evaluation time (build +
	// query replay); the paper's Table VI "workload replay" column.
	ReplaySeconds float64 `json:"replay_seconds"`
	// Failed marks configurations that crashed or timed out. Failed
	// results carry zero QPS/recall; the tuner substitutes worst-case
	// values per its own policy (paper §V-A).
	Failed bool `json:"failed,omitempty"`
	// FailReason explains a failure.
	FailReason string `json:"fail_reason,omitempty"`
}

// Evaluate opens the dataset under cfg, replays the full query workload
// (one worker per CPU; the pool size never shows in the result), and
// returns the measured performance. It is deterministic for a given
// (dataset, cfg) pair.
func Evaluate(ds *workload.Dataset, cfg Config) Result {
	inst, err := Open(ds, cfg)
	if err != nil {
		var fe *FailureError
		if errors.As(err, &fe) {
			return Result{Failed: true, FailReason: fe.Reason}
		}
		return Result{Failed: true, FailReason: err.Error()}
	}

	nq := len(ds.Queries)
	latencies := make([]float64, nq)
	recalls := make([]float64, nq)
	wait := syncWaitMs(&cfg, inst.pendingFraction)

	parallel.Parallel(0, nq, func(qi int) {
		var st index.Stats
		res := inst.Search(ds.Queries[qi], ds.K, &st)
		recalls[qi] = ds.Recall(qi, res)
		workNs := workNanos(st, ds.Dim) * queryMissMult
		latencies[qi] = queryLatencySec(workNs, inst.segments, &cfg, wait, inst.bgLoad)
	})

	var latSum, recSum float64
	for qi := 0; qi < nq; qi++ {
		latSum += latencies[qi]
		recSum += recalls[qi]
	}
	avgLat := latSum / float64(nq)
	qps := float64(cfg.concurrency()) / avgLat

	// Simulated replay time mirrors the paper's workload replay: build
	// the collection, then serve a fixed request budget. The request
	// budget is scaled so replay dominates like it does on the testbed.
	const replayRequests = 20000
	replaySec := inst.buildSeconds + replayRequests*avgLat/float64(cfg.concurrency())
	if replaySec > replayTimeoutSec {
		return Result{Failed: true, FailReason: "replay exceeded 15-minute limit",
			BuildSeconds: inst.buildSeconds, ReplaySeconds: replaySec}
	}
	return Result{
		QPS:           qps,
		Recall:        recSum / float64(nq),
		MemoryBytes:   inst.memoryBytes,
		BuildSeconds:  inst.buildSeconds,
		ReplaySeconds: replaySec,
	}
}
