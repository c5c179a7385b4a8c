package vdms

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/workload"
)

// evaluateGolden pins vdms.Evaluate's full Result — float fields as their
// IEEE bits — for one configuration per index type on GloVeLike(0.25)
// (1 500 rows; four sealed segments and a 38-row growing tail under the
// stock segmentation, so Instance.Search's collector merges five sources).
// Recorded at the parent of the commit that deleted the single-query scan
// bodies, through them (Index.Search per segment, ScanStore on the tail,
// linalg.MergeNeighbors), on SSE and on the purego kernels (identical).
// MemoryBytes was re-recorded when queryNode_cacheRatio left the table and
// its 0.3 × raw-bytes cache charge left the memory model (180 000 B lower
// on every row); every float field kept its bits. The tuner's objective is
// this Result: a moved bit here moves every tuning trajectory.
var evaluateGolden = map[string]struct {
	qps, recall   uint64
	memory        int64
	build, replay uint64
}{
	"FLAT":      {0x40def6d2761de573, 0x3ff0000000000000, 708600, 0x3f789374bc6a7efa, 0x3fe4606b0f429323},
	"IVF_FLAT":  {0x40ee1bec1537112c, 0x3fef70a3d70a3d71, 765648, 0x3fdb54e2b063e07a, 0x3fe80b73076bc2ec},
	"IVF_SQ8":   {0x40f397185252b134, 0x3fef69d0369d036a, 330248, 0x3fdb856422bf47a9, 0x3fe5bc880183f493},
	"IVF_PQ":    {0x40f15cdbf05639f4, 0x3fec8f5c28f5c292, 297868, 0x3feb3bfc8018bf14, 0x3ff21de2bc5e5f69},
	"HNSW":      {0x40e29469fdedd062, 0x3ff0000000000000, 823236, 0x4025d5df00abf76a, 0x4026e2fb3d32fa92},
	"SCANN":     {0x40edae57692ba811, 0x3fef70a3d70a3d71, 915048, 0x3fdb856422bf47a9, 0x3fe84a05477715ca},
	"AUTOINDEX": {0x40e00b855a9ea95d, 0x3ff0000000000000, 859804, 0x4033300817fc7608, 0x4033cbd7e67c9f63},
}

func TestEvaluateGolden(t *testing.T) {
	ds, err := workload.Load(workload.GloVeLike(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range index.AllTypes() {
		t.Run(typ.String(), func(t *testing.T) {
			want, ok := evaluateGolden[typ.String()]
			if !ok {
				t.Fatalf("no golden value for %v", typ)
			}
			cfg := DefaultConfig()
			cfg.IndexType = typ
			cfg.Build = index.BuildParams{NList: 32, M: 10, NBits: 6, HNSWM: 12, EfConstruction: 64, Seed: 5}
			cfg.Search = index.SearchParams{NProbe: 8, Ef: 48, ReorderK: 60}
			got := Evaluate(ds, cfg)
			if got.Failed {
				t.Fatalf("evaluation failed: %s", got.FailReason)
			}
			if math.Float64bits(got.QPS) != want.qps || math.Float64bits(got.Recall) != want.recall ||
				got.MemoryBytes != want.memory ||
				math.Float64bits(got.BuildSeconds) != want.build || math.Float64bits(got.ReplaySeconds) != want.replay {
				t.Errorf("Result {QPS %#x (%v), Recall %#x (%v), Memory %d, Build %#x, Replay %#x}, golden %+v",
					math.Float64bits(got.QPS), got.QPS, math.Float64bits(got.Recall), got.Recall, got.MemoryBytes,
					math.Float64bits(got.BuildSeconds), math.Float64bits(got.ReplaySeconds), want)
			}
		})
	}
}

// hashResults folds result lists — lengths, ids, and distance bits, in
// order — into one value, so a golden can pin a whole query set.
func hashResults(res [][]linalg.Neighbor) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		f.Write(b[:])
	}
	for _, r := range res {
		put(uint64(len(r)))
		for _, nb := range r {
			put(uint64(nb.ID))
			put(uint64(math.Float32bits(nb.Dist)))
		}
	}
	return f.Sum64()
}
