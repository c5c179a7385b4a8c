package vdms

import (
	"sort"
	"time"

	"vdtuner/internal/parallel"
	"vdtuner/internal/workload"
)

// WallClockResult is a measured (not simulated) evaluation of a
// configuration — the engine's second look at real hardware, useful for
// validating that the simulated clock preserves ordering.
type WallClockResult struct {
	// QPS is measured throughput: queries served / wall time.
	QPS float64
	// Recall is mean recall@K against the dataset's ground truth.
	Recall float64
	// P50 and P99 are latency percentiles in seconds.
	P50, P99 float64
	// Queries is the number of requests served.
	Queries int
}

// MeasureWallClock opens the dataset under cfg — the Instance Evaluate
// scores — and replays the query set `rounds` times through the shared
// pool at the configured concurrency, timing every search. Its Recall is
// Evaluate's: the first round's per-query recalls, summed in query order.
// It is inherently noisy (it measures this process on this machine); the
// tuner uses the simulated clock instead, see DESIGN.md.
func MeasureWallClock(ds *workload.Dataset, cfg Config, rounds int) (*WallClockResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	inst, err := Open(ds, cfg)
	if err != nil {
		return nil, err
	}

	nq := len(ds.Queries)
	total := nq * rounds
	latencies := make([]time.Duration, total)
	recalls := make([]float64, nq)
	start := time.Now()
	parallel.Parallel(cfg.concurrency(), total, func(i int) {
		qi := i % nq
		t0 := time.Now()
		res := inst.Search(ds.Queries[qi], ds.K, nil)
		latencies[i] = time.Since(t0)
		if i < nq {
			recalls[qi] = ds.Recall(qi, res)
		}
	})
	elapsed := time.Since(start)

	out := &WallClockResult{Queries: total, QPS: float64(total) / elapsed.Seconds()}
	for _, r := range recalls {
		out.Recall += r
	}
	out.Recall /= float64(nq)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	out.P50 = latencies[total/2].Seconds()
	out.P99 = latencies[(total*99)/100].Seconds()
	return out, nil
}
