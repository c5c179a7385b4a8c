package online

import (
	"reflect"
	"testing"

	"vdtuner/internal/core"
	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/vdms"
)

// liveCollection builds a small live engine holding one window's corpus.
func liveCollection(t *testing.T) (*vdms.Collection, vdms.Config) {
	t.Helper()
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	cfg.ShardCount = 2
	cfg.Parallelism = 2
	ds := window(t, "daemon-corpus", 8, 0.4, 41)
	c, err := vdms.NewCollection(cfg, linalg.L2, ds.Dim, len(ds.Vectors))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ds.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

func TestDaemonClosesTheLoop(t *testing.T) {
	coll, base := liveCollection(t)
	defer coll.Close()
	d := NewDaemon(coll, DaemonOptions{Tuning: core.Options{Seed: 9, Candidates: 32}, InitialIters: 10})

	// Window 1: cold start must tune and push a configuration into the
	// engine as a hot swap — cold knobs stay the engine's own.
	w1 := window(t, "daemon-w1", 8, 0.4, 42)
	rep1, err := d.ObserveWindow(w1.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Applied {
		t.Fatal("cold start did not apply a configuration")
	}
	if rep1.Migrated {
		t.Fatal("cold-knob migration applied with ApplyColdChanges=false")
	}
	if rep1.Result.Failed {
		t.Fatalf("deployed config failed on its window: %s", rep1.Result.FailReason)
	}
	active := coll.Config()
	if active.IndexType != base.IndexType || active.ShardCount != base.ShardCount ||
		active.SegmentMaxSize != base.SegmentMaxSize {
		t.Fatalf("hot application changed cold knobs: %+v", active)
	}
	if !d.haveBest {
		t.Fatal("no deployed configuration after cold start")
	}
	if active.Search != d.best.Search {
		t.Fatalf("engine search knobs %+v, tuner deployed %+v", active.Search, d.best.Search)
	}
	gen1 := coll.Stats().ConfigGeneration
	if gen1 == 0 || rep1.Generation != gen1 {
		t.Fatalf("generation after cold start: stats %d, report %d", gen1, rep1.Generation)
	}

	// Window 2: same distribution (same generator seed, as in the
	// cold-start-then-stable test) — no drift, no re-tune, no new apply.
	w2 := window(t, "daemon-w2", 8, 0.4, 42)
	rep2, err := d.ObserveWindow(w2.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Retuned || rep2.Applied {
		t.Fatalf("stable window re-applied: %+v", rep2)
	}
	if got := coll.Stats().ConfigGeneration; got != gen1 {
		t.Fatalf("stable window advanced the generation: %d -> %d", gen1, got)
	}

	// Window 3: a very different distribution — drift triggers a warm
	// re-tune; any new winner reaches the engine.
	w3 := window(t, "daemon-w3", 32, 1.5, 97)
	rep3, err := d.ObserveWindow(w3.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Retuned || d.retunes != 1 {
		t.Fatalf("drifted window did not re-tune: %+v", rep3)
	}
	if rep3.Migrated {
		t.Fatal("re-tune migrated cold knobs with ApplyColdChanges=false")
	}
	if rep3.Applied {
		if got := coll.Stats().ConfigGeneration; got <= gen1 {
			t.Fatalf("applied re-tune left generation at %d", got)
		}
	}
	// The engine must still serve after everything the daemon did.
	if _, err := coll.SearchBatch(w3.Queries[:4], 5, nil); err != nil {
		t.Fatalf("engine unusable after daemon loop: %v", err)
	}
}

// TestDaemonTunesAnAngularEngine: vdmsd's default metric. The daemon's
// window is the normalized rows an angular engine stores plus the raw
// queries it was sent; the dataset it scores candidates on must be the
// canonical (normalized, L2) form, or the quantizing index types are
// scored on a metric nobody serves and none of their configurations ever
// clears a recall floor. The caller's window is left as it was sent.
func TestDaemonTunesAnAngularEngine(t *testing.T) {
	pq := index.IVFPQ
	cfg := vdms.DefaultConfig()
	cfg.IndexType = pq
	corpus := window(t, "angular-corpus", 8, 0.4, 41)
	coll, err := vdms.NewCollection(cfg, linalg.Angular, corpus.Dim, len(corpus.Vectors))
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := coll.Insert(corpus.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(coll, DaemonOptions{
		Tuning:       core.Options{Seed: 9, Candidates: 32, FixedType: &pq, RecallFloor: 0.7},
		InitialIters: 10,
	})
	var raw, sent [][]float32
	for i, q := range window(t, "angular-w1", 8, 0.4, 42).Queries {
		q = linalg.Clone(q)
		linalg.Scale(q, 0.5+float32(i))
		raw, sent = append(raw, q), append(sent, linalg.Clone(q))
	}
	rep, err := d.ObserveWindow(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, sent) {
		t.Fatal("the daemon normalized the caller's query window in place")
	}
	if !rep.Applied || rep.Result.Failed {
		t.Fatalf("angular cold start: %+v", rep)
	}
	if rep.Result.Recall <= 0.7 {
		t.Fatalf("deployed IVF_PQ configuration scores recall %.3f on the angular window; the floor was 0.7", rep.Result.Recall)
	}
}

func TestDaemonRequiresData(t *testing.T) {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	coll, err := vdms.NewCollection(cfg, linalg.L2, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	d := NewDaemon(coll, DaemonOptions{Tuning: core.Options{Seed: 1, Candidates: 16}, InitialIters: 4})
	if _, err := d.ObserveWindow([][]float32{{0, 0, 0, 0, 0, 0, 0, 1}}); err == nil {
		t.Fatal("daemon tuned against an empty collection")
	}
}
