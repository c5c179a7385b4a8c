package online

import (
	"testing"

	"vdtuner/internal/core"
	"vdtuner/internal/workload"
)

func window(t *testing.T, name string, clusters int, std float64, seed int64) *workload.Dataset {
	t.Helper()
	ds, err := workload.Load(workload.Spec{
		Name: name, N: 800, NQ: 25, Dim: 16, K: 5,
		Clusters: clusters, ClusterStd: std, Correlated: clusters%2 == 0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDriftDetectorStableWorkload(t *testing.T) {
	var d driftDetector
	a := window(t, "stable-a", 8, 0.4, 1)
	// Two windows from the same distribution (different queries, same
	// generator family) should not trigger.
	b := window(t, "stable-b", 8, 0.4, 1)
	if _, drifted, err := d.Observe(a.Queries); err != nil || drifted {
		t.Fatalf("first window: drifted=%v err=%v", drifted, err)
	}
	score, drifted, err := d.Observe(b.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("identical workload flagged as drift (score %v)", score)
	}
}

func TestDriftDetectorFlagsShift(t *testing.T) {
	var d driftDetector
	a := window(t, "shift-a", 4, 0.3, 2)
	b := window(t, "shift-b", 32, 1.5, 77) // very different structure
	if _, _, err := d.Observe(a.Queries); err != nil {
		t.Fatal(err)
	}
	score, drifted, err := d.Observe(b.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !drifted {
		t.Fatalf("distribution shift not detected (score %v)", score)
	}
}

func TestDriftDetectorErrors(t *testing.T) {
	var d driftDetector
	if _, _, err := d.Observe(nil); err == nil {
		t.Fatal("accepted empty window")
	}
	if _, _, err := d.Observe([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("accepted ragged window")
	}
}

func TestDaemonColdStartThenStable(t *testing.T) {
	d := NewDaemon(nil, DaemonOptions{Tuning: core.Options{Seed: 3, Candidates: 48}, InitialIters: 14})
	if d.haveBest {
		t.Fatal("deployed configuration before tuning")
	}
	w1 := window(t, "mgr-1", 8, 0.4, 4)
	rep, err := d.step(w1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retuned {
		t.Fatal("cold start counted as re-tune")
	}
	if rep.Result.Failed {
		t.Fatalf("deployed config failed: %s", rep.Result.FailReason)
	}
	if !d.haveBest {
		t.Fatal("no deployed config after cold start")
	}
	// Same workload again: no re-tune.
	rep2, err := d.step(w1)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Retuned || d.retunes != 0 {
		t.Fatal("stable workload triggered re-tuning")
	}
}

func TestDaemonRetunesOnDrift(t *testing.T) {
	d := NewDaemon(nil, DaemonOptions{Tuning: core.Options{Seed: 5, Candidates: 48}, InitialIters: 14})
	w1 := window(t, "drift-1", 4, 0.3, 6)
	if _, err := d.step(w1); err != nil {
		t.Fatal(err)
	}
	w2 := window(t, "drift-2", 32, 1.5, 88)
	rep, err := d.step(w2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Retuned || d.retunes != 1 {
		t.Fatalf("drifted window did not re-tune: %+v", rep)
	}
	if rep.Result.Failed {
		t.Fatalf("re-tuned config failed: %s", rep.Result.FailReason)
	}
	// The re-deployed configuration must be serviceable on the new
	// workload.
	if rep.Result.Recall <= 0 {
		t.Fatalf("re-tuned recall %v", rep.Result.Recall)
	}
}

func TestDaemonWarmStartCarriesKnowledge(t *testing.T) {
	d := NewDaemon(nil, DaemonOptions{Tuning: core.Options{Seed: 7, Candidates: 32}, InitialIters: 10})
	w1 := window(t, "warm-1", 8, 0.4, 8)
	if _, err := d.step(w1); err != nil {
		t.Fatal(err)
	}
	kbBefore := len(d.kb)
	if kbBefore == 0 {
		t.Fatal("knowledge base empty after cold start")
	}
	w2 := window(t, "warm-2", 32, 1.6, 99)
	if _, err := d.step(w2); err != nil {
		t.Fatal(err)
	}
	if len(d.kb) <= kbBefore {
		t.Fatalf("knowledge base did not grow across sessions: %d -> %d", kbBefore, len(d.kb))
	}
}
