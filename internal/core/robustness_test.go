package core

import (
	"math/rand"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/vdms"
)

// TestTunerSurvivesFlakyEvaluator injects a high failure rate into the
// evaluation loop: the tuner must keep proposing valid configurations,
// never crash, and still collect usable observations (the paper's
// failed-configuration policy, §V-A).
func TestTunerSurvivesFlakyEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tn := New(Options{Seed: 99, Candidates: 48})
	failures := 0
	for i := 0; i < 40; i++ {
		cfg := tn.Next()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("iteration %d proposed invalid config: %v", i, err)
		}
		var res vdms.Result
		if rng.Float64() < 0.5 {
			res = vdms.Result{Failed: true, FailReason: "injected crash"}
			failures++
		} else {
			res = vdms.Result{
				QPS:           100 + rng.Float64()*900,
				Recall:        0.5 + rng.Float64()*0.5,
				MemoryBytes:   int64(1+rng.Intn(100)) << 20,
				ReplaySeconds: 30,
			}
		}
		tn.Observe(cfg, res)
	}
	if failures < 10 {
		t.Fatalf("injection produced only %d failures; test not exercising the path", failures)
	}
	obs := tn.Observations()
	if len(obs) != 40 {
		t.Fatalf("recorded %d observations", len(obs))
	}
	for i, o := range obs {
		if o.ObjA <= 0 || o.ObjB <= 0 {
			t.Fatalf("observation %d has non-positive objectives: %+v", i, o)
		}
	}
	if _, ok := tn.BestUnderRecall(0.5); !ok {
		t.Fatal("no usable observation survived the flaky run")
	}
}

// TestTunerAllFailures drives the tuner with nothing but failures: it
// must keep cycling without panicking and report no feasible result.
func TestTunerAllFailures(t *testing.T) {
	tn := New(Options{Seed: 100, Candidates: 32})
	for i := 0; i < 20; i++ {
		cfg := tn.Next()
		tn.Observe(cfg, vdms.Result{Failed: true, FailReason: "always down"})
	}
	if _, ok := tn.BestUnderRecall(0); ok {
		t.Fatal("found a 'best' among pure failures")
	}
	if len(tn.ParetoFront()) != 0 {
		t.Fatal("failures leaked onto the Pareto front")
	}
}

// TestConstraintModeWithInfeasibleFloor sets a recall floor nothing can
// reach; the tuner must still operate (CEI with an empty incumbent).
func TestConstraintModeWithInfeasibleFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	tn := New(Options{Seed: 101, RecallFloor: 0.999999, Candidates: 32})
	for i := 0; i < 20; i++ {
		cfg := tn.Next()
		tn.Observe(cfg, vdms.Result{
			QPS: 100 + rng.Float64()*100, Recall: 0.5 * rng.Float64(),
		})
	}
	if _, ok := tn.BestUnderRecall(0.999999); ok {
		t.Fatal("impossible floor satisfied")
	}
}

// TestFixedTypeRestriction pins the tuner to one index type; every
// proposal must carry it.
func TestFixedTypeRestriction(t *testing.T) {
	typ := index.IVFPQ
	tn := New(Options{Seed: 102, FixedType: &typ, Candidates: 32})
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 12; i++ {
		cfg := tn.Next()
		if cfg.IndexType != index.IVFPQ {
			t.Fatalf("iteration %d proposed %v, want IVF_PQ", i, cfg.IndexType)
		}
		tn.Observe(cfg, vdms.Result{QPS: rng.Float64() * 100, Recall: rng.Float64()})
	}
	if got := tn.Remaining(); len(got) != 1 || got[0] != index.IVFPQ {
		t.Fatalf("Remaining = %v", got)
	}
}

// TestNameVariants keeps reporting labels stable for the experiment
// tables.
func TestNameVariants(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, "VDTuner"},
		{Options{RecallFloor: 0.9}, "VDTuner(constraint)"},
		{Options{CostAware: true}, "VDTuner(cost)"},
		{Options{NativeSurrogate: true}, "VDTuner(native-surrogate)"},
		{Options{RoundRobin: true}, "VDTuner(round-robin)"},
	}
	for _, c := range cases {
		if got := New(c.opts).Name(); got != c.want {
			t.Fatalf("Name() = %q, want %q", got, c.want)
		}
	}
}
