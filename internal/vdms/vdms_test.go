package vdms

import (
	"math"
	"strings"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/workload"
)

func testDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	ds, err := workload.Load(workload.Spec{
		Name: "vdms-test", N: 2000, NQ: 25, Dim: 32, K: 10,
		Clusters: 16, ClusterStd: 0.4, Correlated: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.SegmentMaxSize = 50 },
		func(c *Config) { c.SegmentMaxSize = 9999 },
		func(c *Config) { c.SealProportion = 0 },
		func(c *Config) { c.GracefulTime = -1 },
		func(c *Config) { c.GracefulTime = 6000 },
		func(c *Config) { c.InsertBufSize = 10 },
		func(c *Config) { c.Parallelism = 0 },
		func(c *Config) { c.Parallelism = 64 },
		func(c *Config) { c.FlushInterval = 0 },
		func(c *Config) { c.SealProportion = math.NaN() }, // no JSON form: a manifest could not record it
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: out-of-range config accepted", i)
		}
	}
}

func TestEvaluateDefault(t *testing.T) {
	ds := testDataset(t)
	res := Evaluate(ds, DefaultConfig())
	if res.Failed {
		t.Fatalf("default config failed: %s", res.FailReason)
	}
	if res.QPS <= 0 {
		t.Fatalf("QPS = %v", res.QPS)
	}
	if res.Recall <= 0 || res.Recall > 1 {
		t.Fatalf("recall = %v", res.Recall)
	}
	if res.MemoryBytes <= 0 {
		t.Fatalf("memory = %v", res.MemoryBytes)
	}
	if res.ReplaySeconds <= res.BuildSeconds {
		t.Fatalf("replay %v not greater than build %v", res.ReplaySeconds, res.BuildSeconds)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 32
	cfg.Search.NProbe = 8
	a := Evaluate(ds, cfg)
	b := Evaluate(ds, cfg)
	if a != b {
		t.Fatalf("non-deterministic evaluation:\n%+v\n%+v", a, b)
	}
}

func TestFlatIsExactAndSlow(t *testing.T) {
	ds := testDataset(t)
	flat := DefaultConfig()
	flat.IndexType = index.Flat
	rf := Evaluate(ds, flat)
	if rf.Failed {
		t.Fatalf("FLAT failed: %s", rf.FailReason)
	}
	if rf.Recall < 0.999 {
		t.Fatalf("FLAT recall = %v, want 1.0", rf.Recall)
	}
	hnsw := DefaultConfig()
	hnsw.IndexType = index.HNSW
	hnsw.Build.HNSWM = 16
	hnsw.Build.EfConstruction = 100
	hnsw.Search.Ef = 32
	rh := Evaluate(ds, hnsw)
	if rh.Failed {
		t.Fatalf("HNSW failed: %s", rh.FailReason)
	}
	if rh.QPS <= rf.QPS {
		t.Fatalf("HNSW QPS %v not faster than FLAT %v", rh.QPS, rf.QPS)
	}
}

func TestSpeedRecallConflict(t *testing.T) {
	// The central tension of the paper: cranking up search effort raises
	// recall and lowers QPS.
	ds := testDataset(t)
	low := DefaultConfig()
	low.IndexType = index.IVFFlat
	low.Build.NList = 64
	low.Search.NProbe = 1
	high := low
	high.Search.NProbe = 48
	rl := Evaluate(ds, low)
	rh := Evaluate(ds, high)
	if rh.Recall <= rl.Recall {
		t.Fatalf("recall did not rise with nprobe: %v -> %v", rl.Recall, rh.Recall)
	}
	if rh.QPS >= rl.QPS {
		t.Fatalf("QPS did not fall with nprobe: %v -> %v", rl.QPS, rh.QPS)
	}
}

func TestGracefulTimeBlocking(t *testing.T) {
	// Small gracefulTime must hurt QPS (paper §IV-A's example).
	ds := testDataset(t)
	blocked := DefaultConfig()
	blocked.GracefulTime = 0
	relaxed := DefaultConfig()
	relaxed.GracefulTime = 2000
	rb := Evaluate(ds, blocked)
	rr := Evaluate(ds, relaxed)
	if rb.QPS >= rr.QPS {
		t.Fatalf("gracefulTime=0 QPS %v not worse than 2000ms %v", rb.QPS, rr.QPS)
	}
}

func TestSegmentInterdependence(t *testing.T) {
	// segment_maxSize x sealProportion interact (paper Figure 1): tiny
	// sealed segments mean many segments and high dispatch overhead.
	ds := testDataset(t)
	small := DefaultConfig()
	small.SegmentMaxSize = 100
	small.SealProportion = 0.3
	big := DefaultConfig()
	big.SegmentMaxSize = 2048
	big.SealProportion = 1.0
	is, err := Open(ds, small)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Open(ds, big)
	if err != nil {
		t.Fatal(err)
	}
	if is.segments <= ib.segments {
		t.Fatalf("small segments %d not more numerous than big %d", is.segments, ib.segments)
	}
}

func TestParallelismDiminishingReturns(t *testing.T) {
	ds := testDataset(t)
	qps := func(p int) float64 {
		cfg := DefaultConfig()
		cfg.Parallelism = p
		cfg.SegmentMaxSize = 100
		cfg.SealProportion = 0.2 // many segments so parallelism matters
		r := Evaluate(ds, cfg)
		if r.Failed {
			t.Fatalf("p=%d failed: %s", p, r.FailReason)
		}
		return r.QPS
	}
	q1, q8 := qps(1), qps(8)
	if q8 <= q1 {
		t.Fatalf("parallelism 8 QPS %v not better than 1 %v", q8, q1)
	}
	if q8 > q1*8 {
		t.Fatalf("parallelism speedup superlinear: %v vs %v", q8, q1)
	}
}

func TestInsertBufGrowsUnindexedTail(t *testing.T) {
	ds := testDataset(t)
	smallBuf := DefaultConfig()
	smallBuf.InsertBufSize = 64
	bigBuf := DefaultConfig()
	bigBuf.InsertBufSize = 2048
	is, err := Open(ds, smallBuf)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Open(ds, bigBuf)
	if err != nil {
		t.Fatal(err)
	}
	if ib.pendingFraction <= is.pendingFraction {
		t.Fatalf("big buffer pending %v not larger than small %v", ib.pendingFraction, is.pendingFraction)
	}
}

func TestOpenEmptyDataset(t *testing.T) {
	_, err := Open(&workload.Dataset{Dim: 4}, DefaultConfig())
	if err == nil {
		t.Fatal("Open accepted empty dataset")
	}
}

func TestEvaluateFailurePath(t *testing.T) {
	// A PQ configuration with absurd codebooks on tiny segments must
	// fail (timeout or memory), exercising the failed-config path the
	// paper handles by substituting worst values.
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFPQ
	cfg.Build.NList = 1024
	cfg.Build.M = 16
	cfg.Build.NBits = 12
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.05
	cfg.Parallelism = 1
	res := Evaluate(ds, cfg)
	if !res.Failed {
		t.Skipf("configuration unexpectedly survived (QPS %v); failure path covered elsewhere", res.QPS)
	}
	if res.FailReason == "" {
		t.Fatal("failed result missing reason")
	}
}

func TestFailureErrorMessage(t *testing.T) {
	e := &FailureError{Reason: "boom"}
	if !strings.Contains(e.Error(), "boom") {
		t.Fatalf("FailureError message %q", e.Error())
	}
}

func BenchmarkEvaluateDefault(b *testing.B) {
	b.ReportAllocs()
	ds := testDataset(b)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(ds, cfg)
	}
}
