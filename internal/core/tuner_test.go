package core

import (
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/mobo"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

func smallDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	ds, err := workload.Load(workload.Spec{
		Name: "core-test", N: 1200, NQ: 20, Dim: 24, K: 10,
		Clusters: 12, ClusterStd: 0.4, Correlated: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// drive runs a Next/Observe loop against the real engine.
func drive(t testing.TB, tn *Tuner, ds *workload.Dataset, iters int) {
	t.Helper()
	for i := 0; i < iters; i++ {
		cfg := tn.Next()
		res := vdms.Evaluate(ds, cfg)
		tn.Observe(cfg, res)
	}
}

func TestInitialSamplingCoversAllTypes(t *testing.T) {
	ds := smallDataset(t)
	tn := New(Options{Seed: 1})
	drive(t, tn, ds, len(index.AllTypes()))
	seen := map[index.Type]bool{}
	for _, o := range tn.Observations() {
		seen[o.Type] = true
	}
	for _, typ := range index.AllTypes() {
		if !seen[typ] {
			t.Fatalf("initial sampling missed %v", typ)
		}
	}
}

func TestTuningImprovesOverDefault(t *testing.T) {
	ds := smallDataset(t)
	def := vdms.Evaluate(ds, vdms.DefaultConfig())
	if def.Failed {
		t.Fatalf("default failed: %s", def.FailReason)
	}
	tn := New(Options{Seed: 2, AbandonWindow: 6, Candidates: 96})
	drive(t, tn, ds, 40)
	best, ok := tn.BestUnderRecall(def.Recall - 1e-9)
	if !ok {
		t.Fatal("no configuration at default recall level found")
	}
	if best.ObjA <= def.QPS {
		t.Fatalf("tuned QPS %v not above default %v (recall %v vs %v)",
			best.ObjA, def.QPS, best.Result.Recall, def.Recall)
	}
}

func TestSuccessiveAbandonShrinksTypes(t *testing.T) {
	ds := smallDataset(t)
	tn := New(Options{Seed: 3, AbandonWindow: 3, Candidates: 64})
	drive(t, tn, ds, 45)
	if len(tn.Remaining()) >= len(index.AllTypes()) {
		t.Fatalf("no index type abandoned after 45 iterations (remaining %v)", tn.Remaining())
	}
	if len(tn.Remaining())+len(tn.Abandoned()) != len(index.AllTypes()) {
		t.Fatalf("remaining %v + abandoned %v != all types", tn.Remaining(), tn.Abandoned())
	}
	if len(tn.Remaining()) < 1 {
		t.Fatal("tuner abandoned every type")
	}
}

func TestRoundRobinNeverAbandons(t *testing.T) {
	ds := smallDataset(t)
	tn := New(Options{Seed: 4, RoundRobin: true, AbandonWindow: 2, Candidates: 48})
	drive(t, tn, ds, 30)
	if len(tn.Remaining()) != len(index.AllTypes()) {
		t.Fatalf("round-robin ablation abandoned types: %v", tn.Remaining())
	}
}

func TestPollingCyclesRemainingTypes(t *testing.T) {
	ds := smallDataset(t)
	tn := New(Options{Seed: 5, RoundRobin: true, Candidates: 32})
	nTypes := len(index.AllTypes())
	drive(t, tn, ds, nTypes+nTypes) // init + one full polling cycle
	polled := tn.Observations()[nTypes:]
	seen := map[index.Type]int{}
	for _, o := range polled {
		seen[o.Type]++
	}
	for _, typ := range index.AllTypes() {
		if seen[typ] != 1 {
			t.Fatalf("polling cycle visited %v %d times, want 1", typ, seen[typ])
		}
	}
}

func TestConstraintModeFocusesOnFeasibleSpeed(t *testing.T) {
	ds := smallDataset(t)
	tn := New(Options{Seed: 6, RecallFloor: 0.8, Candidates: 64, AbandonWindow: 5})
	drive(t, tn, ds, 35)
	best, ok := tn.BestUnderRecall(0.8)
	if !ok {
		t.Fatal("constraint mode found nothing above the floor")
	}
	if best.Result.Recall <= 0.8 {
		t.Fatalf("best feasible observation has recall %v", best.Result.Recall)
	}
}

func TestBootstrapWarmStart(t *testing.T) {
	ds := smallDataset(t)
	first := New(Options{Seed: 7, RecallFloor: 0.7, Candidates: 48})
	drive(t, first, ds, 20)
	second := New(Options{Seed: 8, RecallFloor: 0.85, Candidates: 48,
		Bootstrap: first.Observations()})
	if len(second.Observations()) != len(first.Observations()) {
		t.Fatal("bootstrap observations not loaded")
	}
	drive(t, second, ds, 10)
	if len(second.Observations()) != len(first.Observations())+10 {
		t.Fatal("bootstrap run did not extend history")
	}
}

func TestFailedObservationsGetWorstValues(t *testing.T) {
	tn := New(Options{Seed: 9})
	good := vdms.Result{QPS: 100, Recall: 0.9}
	cfg := vdms.DefaultConfig()
	tn.Observe(cfg, good)
	tn.Observe(cfg, vdms.Result{Failed: true, FailReason: "boom"})
	obs := tn.Observations()
	failed := obs[len(obs)-1]
	if failed.ObjA > 100 || failed.ObjB > 0.9 {
		t.Fatalf("failed observation got non-worst values: %+v", failed)
	}
	if failed.ObjA <= 0 || failed.ObjB <= 0 {
		t.Fatalf("failed observation got non-positive values: %+v", failed)
	}
}

func TestCostAwareObjective(t *testing.T) {
	tn := New(Options{Seed: 10, CostAware: true})
	res := vdms.Result{QPS: 100, Recall: 0.9, MemoryBytes: 1 << 30}
	tn.Observe(vdms.DefaultConfig(), res)
	o := tn.Observations()[0]
	want := CostEffectiveness(res)
	if o.ObjA != want {
		t.Fatalf("cost-aware objective = %v, want %v", o.ObjA, want)
	}
	if want >= res.QPS {
		t.Fatalf("QP$ %v not smaller than QPS for a >1 GiB-eq footprint", want)
	}
}

func TestBalancedBase(t *testing.T) {
	// Of the front points, (3,3) is perfectly balanced once normalized
	// by the maxima (5,5): |3/5-3/5| = 0.
	ps := []mobo.Point{{A: 5, B: 1}, {A: 3, B: 3}, {A: 1, B: 5}, {A: 0.5, B: 0.5}}
	b := balancedBase(ps)
	if b.a != 3 || b.b != 3 {
		t.Fatalf("balancedBase = %+v, want (3,3)", b)
	}
}

func TestBalancedBaseEmpty(t *testing.T) {
	b := balancedBase(nil)
	if b.a <= 0 || b.b <= 0 {
		t.Fatalf("empty base not sane: %+v", b)
	}
}

func TestMaxBase(t *testing.T) {
	b := maxBase([]mobo.Point{{A: 5, B: 1}, {A: 1, B: 5}})
	if b.a != 5 || b.b != 5 {
		t.Fatalf("maxBase = %+v", b)
	}
}

func TestNormalizedPointsPerTypeScale(t *testing.T) {
	tn := New(Options{Seed: 11})
	cfgA := vdms.DefaultConfig()
	cfgA.IndexType = index.HNSW
	cfgB := vdms.DefaultConfig()
	cfgB.IndexType = index.SCANN
	// HNSW observations are 10x SCANN's in speed; NPI must erase the gap.
	tn.Observe(cfgA, vdms.Result{QPS: 1000, Recall: 0.9})
	tn.Observe(cfgB, vdms.Result{QPS: 100, Recall: 0.9})
	norm, _ := tn.normalizedPoints()
	if norm[0].A != 1 || norm[1].A != 1 {
		t.Fatalf("single-observation types must normalize to 1: %+v", norm)
	}
}

func TestNativeSurrogateSharedScale(t *testing.T) {
	tn := New(Options{Seed: 12, NativeSurrogate: true})
	cfg := vdms.DefaultConfig()
	tn.Observe(cfg, vdms.Result{QPS: 1000, Recall: 0.5})
	cfg.IndexType = index.SCANN
	tn.Observe(cfg, vdms.Result{QPS: 100, Recall: 1.0})
	norm, _ := tn.normalizedPoints()
	if norm[1].A != 0.1 {
		t.Fatalf("native surrogate must keep the global scale: %+v", norm)
	}
}

func TestScoreTypesRewardsContributors(t *testing.T) {
	tn := New(Options{Seed: 13})
	mk := func(typ index.Type, qps, rec float64) {
		cfg := vdms.DefaultConfig()
		cfg.IndexType = typ
		tn.Observe(cfg, vdms.Result{QPS: qps, Recall: rec})
	}
	// SCANN contributes the speed end of the front, HNSW the recall end,
	// FLAT contributes a dominated point.
	mk(index.SCANN, 1000, 0.80)
	mk(index.HNSW, 600, 0.99)
	mk(index.Flat, 100, 0.70)
	scores := tn.scoreTypes()
	if scores[index.SCANN] <= scores[index.Flat] {
		t.Fatalf("front contributor scored below dominated type: %v", scores)
	}
	if scores[index.Flat] != 0 {
		t.Fatalf("non-contributor score = %v, want 0", scores[index.Flat])
	}
}

func TestParetoFrontSkipsFailures(t *testing.T) {
	obs := []Observation{
		{ObjA: 10, ObjB: 0.9, Result: vdms.Result{QPS: 10, Recall: 0.9}},
		{ObjA: 99, ObjB: 0.99, Result: vdms.Result{Failed: true}},
	}
	front := ParetoFront(obs)
	if len(front) != 1 || front[0].ObjA != 10 {
		t.Fatalf("front = %+v", front)
	}
}

func TestBestUnderRecallBoundary(t *testing.T) {
	obs := []Observation{
		{ObjA: 100, ObjB: 0.85, Result: vdms.Result{QPS: 100, Recall: 0.85}},
		{ObjA: 50, ObjB: 0.95, Result: vdms.Result{QPS: 50, Recall: 0.95}},
	}
	// Floor exactly at 0.85 excludes the first (strictly-above rule).
	best, ok := BestUnderRecall(obs, 0.85)
	if !ok || best.ObjA != 50 {
		t.Fatalf("best = %+v, ok=%v", best, ok)
	}
	if _, ok := BestUnderRecall(obs, 0.99); ok {
		t.Fatal("found an observation above an unreachable floor")
	}
}

func TestNextDeterministicPerSeed(t *testing.T) {
	a := New(Options{Seed: 14})
	b := New(Options{Seed: 14})
	for i := 0; i < 3; i++ {
		ca, cb := a.Next(), b.Next()
		if ca != cb {
			t.Fatalf("iteration %d diverged:\n%+v\n%+v", i, ca, cb)
		}
		res := vdms.Result{QPS: float64(10 * (i + 1)), Recall: 0.5}
		a.Observe(ca, res)
		b.Observe(cb, res)
	}
}

func TestObserveWithoutNextEncodes(t *testing.T) {
	tn := New(Options{Seed: 15})
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFFlat
	tn.Observe(cfg, vdms.Result{QPS: 5, Recall: 0.5})
	o := tn.Observations()[0]
	if len(o.X) != space.Dims {
		t.Fatalf("encoded vector has %d dims", len(o.X))
	}
	if o.Type != index.IVFFlat {
		t.Fatalf("type = %v", o.Type)
	}
}

func TestMemGiBPositive(t *testing.T) {
	if MemGiB(0) <= 0 {
		t.Fatal("MemGiB(0) not positive")
	}
	if MemGiB(1<<30) <= MemGiB(1<<20) {
		t.Fatal("MemGiB not monotone")
	}
}
