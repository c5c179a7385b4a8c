package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
)

// TestTunerTrajectoryGolden pins one whole tuning run: every vector the
// tuner proposed, the configuration it decoded to, and the result the
// engine gave back, folded into one FNV hash. The value recorded before
// the knob table (vdms.Knobs) replaced the hand-written Encode/Decode/defs
// held through that change, the proof that deriving the search space from
// the table changed no arithmetic. It was re-recorded once since, when
// queryNode_cacheRatio left the table: the space lost a dimension, so the
// proposals (and the memory charge) changed.
func TestTunerTrajectoryGolden(t *testing.T) {
	const (
		iters = 42
		want  = uint64(0xd6bcdbf19a514607)
	)
	ds := smallDataset(t)
	tn := New(Options{Seed: 7})
	h := fnv.New64a()
	seen := map[index.Type]bool{}
	for i := 0; i < iters; i++ {
		cfg := tn.Next()
		res := vdms.Evaluate(ds, cfg)
		tn.Observe(cfg, res)
		o := tn.Observations()[i]
		if len(o.X) != space.Dims {
			t.Fatalf("iteration %d: proposed vector has %d dims", i, len(o.X))
		}
		seen[cfg.IndexType] = true
		fmt.Fprintf(h, "%v|%+v|%+v\n", []float64(o.X), cfg, res)
	}
	if len(seen) != len(index.AllTypes()) {
		t.Fatalf("trajectory covered %d index types, want all %d", len(seen), len(index.AllTypes()))
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("trajectory hash %#x, want %#x", got, want)
	}
}

// kbGoldenObservations is the fixture testdata/kb_v1.json was written
// from (by SaveObservations, at the commit before vdms.Config learned to
// serialise itself): a configuration with all 21 scalar knobs of the time
// off their defaults, one recorded before the zero-means-default knobs
// existed, and a failed evaluation. The file still carries the retired
// queryNode_cacheRatio key and 22-dimensional vectors: decoding ignores
// the key, and LoadObservations re-encodes vectors of another length, so
// the observations below (without the field, vectors from space.Encode)
// are what it must load.
func kbGoldenObservations() []Observation {
	full := vdms.Config{
		IndexType: index.IVFPQ,
		Build:     index.BuildParams{NList: 300, M: 4, NBits: 6, HNSWM: 24, EfConstruction: 200},
		Search:    index.SearchParams{NProbe: 36, Ef: 96, ReorderK: 283},

		SegmentMaxSize: 1024, SealProportion: 0.625, GracefulTime: 250.5,
		InsertBufSize: 128, Parallelism: 7, FlushInterval: 33.25,
		CompactionTriggerRatio: 0.35, CompactionMergeFanIn: 6, CompactionParallelism: 3,
		WALFsyncPolicy: 3, WALGroupCommit: 17, ShardCount: 4,
		Concurrency: 12,
	}
	old := vdms.Config{
		IndexType: index.HNSW,
		Build:     index.BuildParams{NList: 128, M: 8, NBits: 8, HNSWM: 16, EfConstruction: 128},
		Search:    index.SearchParams{NProbe: 16, Ef: 64, ReorderK: 100},

		SegmentMaxSize: 512, SealProportion: 0.25, GracefulTime: 1000,
		InsertBufSize: 256, Parallelism: 4, FlushInterval: 10,
	}
	def := vdms.DefaultConfig()
	return []Observation{
		{Config: full, X: space.Encode(full), Type: index.IVFPQ, ObjA: 1234.5, ObjB: 0.93,
			Result: vdms.Result{QPS: 1234.5, Recall: 0.93, MemoryBytes: 3 << 20, BuildSeconds: 12.125, ReplaySeconds: 99.5}},
		{Config: old, X: space.Encode(old), Type: index.HNSW, ObjA: 77, ObjB: 0.5,
			Result: vdms.Result{QPS: 77, Recall: 0.5, MemoryBytes: 1 << 20, BuildSeconds: 1, ReplaySeconds: 2}},
		{Config: def, X: space.Encode(def), Type: index.AutoIndex, ObjA: 1e-6, ObjB: 1e-6,
			Result: vdms.Result{Failed: true, FailReason: "replay exceeded 15-minute limit"}},
	}
}

func requireSameObservations(t *testing.T, got, want []Observation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d observations, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Config != w.Config || g.Type != w.Type || g.ObjA != w.ObjA || g.ObjB != w.ObjB || g.Result != w.Result {
			t.Fatalf("observation %d differs:\n got %+v\nwant %+v", i, g, w)
		}
		if len(g.X) != len(w.X) {
			t.Fatalf("observation %d: vector has %d dims, want %d", i, len(g.X), len(w.X))
		}
		for d := range w.X {
			if g.X[d] != w.X[d] {
				t.Fatalf("observation %d: x[%d] = %v, want %v", i, d, g.X[d], w.X[d])
			}
		}
	}
}

// TestKnowledgeBaseGolden loads a version-1 knowledge base written by the
// previous on-disk code path and requires the identical observations, then
// requires that what this code writes reads back the same.
func TestKnowledgeBaseGolden(t *testing.T) {
	want := kbGoldenObservations()
	raw, err := os.ReadFile("testdata/kb_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadObservations(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	requireSameObservations(t, loaded, want)

	var buf bytes.Buffer
	if err := SaveObservations(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := LoadObservations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameObservations(t, again, want)
}
