package vdms

import (
	"testing"

	"vdtuner/internal/index"
)

func TestWorkNanosComposition(t *testing.T) {
	st := index.Stats{DistComps: 10, CodeComps: 20, Lookups: 30}
	got := workNanos(st, 100)
	want := 10*100*nsPerFullDim + 20*100*nsPerCodeDim + 30*nsPerLookup
	if got != want {
		t.Fatalf("workNanos = %v, want %v", got, want)
	}
}

// TestWorkNanosCacheMultiplier: the query path's miss multiplier is the
// constant the retired queryNode_cacheRatio knob gave at its stock value,
// to the bit — the value computed at run time from a float64 0.3, as the
// knob's Config field held it — so no stock-config result moves.
func TestWorkNanosCacheMultiplier(t *testing.T) {
	stock := 0.3
	if got := 1 + cacheMissPenalty*(1-stock); queryMissMult != got {
		t.Fatalf("queryMissMult = %v, the knob's stock value gave %v", queryMissMult, got)
	}
	if queryMissMult <= 1 || queryMissMult > 1+cacheMissPenalty {
		t.Fatalf("queryMissMult %v outside (1, %v]", queryMissMult, 1+cacheMissPenalty)
	}
}

func TestWorkNanosMonotoneInWork(t *testing.T) {
	prev := -1.0
	for comps := int64(0); comps < 1000; comps += 100 {
		v := workNanos(index.Stats{DistComps: comps}, 32)
		if v <= prev {
			t.Fatalf("workNanos not increasing at %d distcomps", comps)
		}
		prev = v
	}
}

func TestQueryLatencyParallelismHelps(t *testing.T) {
	cfg := DefaultConfig()
	lat := func(p int) float64 {
		c := cfg
		c.Parallelism = p
		return queryLatencySec(1e7, 16, &c, 0, 0)
	}
	if lat(8) >= lat(1) {
		t.Fatalf("8 workers latency %v not below 1 worker %v", lat(8), lat(1))
	}
	// Sublinear: 32 workers cannot be 32x faster.
	if lat(32) < lat(1)/32 {
		t.Fatalf("superlinear speedup: %v vs %v", lat(32), lat(1))
	}
}

func TestQueryLatencyParallelismCappedBySegments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 32
	few := queryLatencySec(1e7, 1, &cfg, 0, 0)
	cfg2 := cfg
	cfg2.Parallelism = 1
	one := queryLatencySec(1e7, 1, &cfg2, 0, 0)
	// With one segment, extra workers only add coordination cost.
	if few < one*0.8 {
		t.Fatalf("parallelism helped beyond segment count: %v vs %v", few, one)
	}
}

func TestQueryLatencyBackgroundLoadHurts(t *testing.T) {
	cfg := DefaultConfig()
	idle := queryLatencySec(1e7, 8, &cfg, 0, 0)
	busy := queryLatencySec(1e7, 8, &cfg, 0, 2.0)
	if busy <= idle {
		t.Fatalf("background load did not slow queries: %v vs %v", busy, idle)
	}
}

func TestSyncWaitBlockingBelowRequirement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GracefulTime = 0
	blocked := syncWaitMs(&cfg, 0.5)
	cfg.GracefulTime = 5000
	relaxed := syncWaitMs(&cfg, 0.5)
	if blocked <= relaxed {
		t.Fatalf("gracefulTime=0 wait %v not above 5000ms wait %v", blocked, relaxed)
	}
}

func TestSyncWaitGrowsWithPending(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GracefulTime = 0
	low := syncWaitMs(&cfg, 0.0)
	high := syncWaitMs(&cfg, 1.0)
	if high <= low {
		t.Fatalf("pending data did not raise sync wait: %v vs %v", high, low)
	}
}

func TestClamp(t *testing.T) {
	if clamp(-1, 0, 1) != 0 || clamp(2, 0, 1) != 1 || clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp broken")
	}
}
