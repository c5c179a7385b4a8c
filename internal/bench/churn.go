package bench

import (
	"fmt"
	"io"

	"vdtuner/internal/index"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// The churn experiment: a delete-heavy lifecycle the paper's static
// replay cannot express. It loads a live collection, deletes half the
// corpus, and reports the segment layout, footprint, and per-query
// scanned work before the deletes, after the deletes + compaction, and
// the compactor's own counters — the evidence that tombstone GC keeps the
// set of deleted rows every search excludes bounded under sustained churn.

// ChurnResult summarizes one churn run.
type ChurnResult struct {
	Rows             int64
	DeletedRows      int
	SealedBefore     int
	SealedAfter      int
	MemBefore        int64
	MemAfter         int64
	WorkBefore       int64
	WorkAfter        int64
	Tombstones       int
	ReclaimedRows    int64
	CompactionPasses int64
}

// Churn runs the delete-heavy lifecycle experiment: bulk-insert a
// GloVe-like corpus into a live collection, delete every other row, let
// compaction quiesce, and measure footprint and per-query scanned work
// before and after. Deterministic for a given (Options.Scale, Seed).
func Churn(w io.Writer, o Options) (*ChurnResult, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 32
	cfg.Search.NProbe = 32
	cfg.Build.Seed = o.Seed
	coll, err := vdms.NewCollection(cfg, ds.Metric, ds.Dim, len(ds.Vectors))
	if err != nil {
		return nil, err
	}
	defer coll.Close()
	ids, err := coll.Insert(ds.Vectors)
	if err != nil {
		return nil, err
	}
	if err := coll.Flush(); err != nil {
		return nil, err
	}

	work := func() (int64, error) {
		var st index.Stats
		if _, err := coll.SearchBatch(ds.Queries, ds.K, &st); err != nil {
			return 0, err
		}
		return st.DistComps + st.CodeComps, nil
	}

	res := &ChurnResult{Rows: int64(len(ids))}
	before := coll.Stats()
	res.SealedBefore = before.Sealed
	res.MemBefore = before.MemoryBytes
	if res.WorkBefore, err = work(); err != nil {
		return nil, err
	}

	var dead []int64
	for i := 0; i < len(ids); i += 2 {
		dead = append(dead, ids[i])
	}
	res.DeletedRows = len(dead)
	if _, err := coll.Delete(dead); err != nil {
		return nil, err
	}
	if err := coll.Compact(); err != nil {
		return nil, err
	}

	after := coll.Stats()
	res.SealedAfter = after.Sealed
	res.MemAfter = after.MemoryBytes
	res.Tombstones = after.Tombstones
	res.ReclaimedRows = after.ReclaimedRows
	res.CompactionPasses = after.CompactionPasses
	if res.WorkAfter, err = work(); err != nil {
		return nil, err
	}
	if res.Tombstones != 0 {
		return nil, fmt.Errorf("bench: churn left %d tombstones after compaction", res.Tombstones)
	}

	fprintf(w, "Churn: delete-heavy lifecycle on %s (%d rows, %d deleted)\n",
		ds.Name, res.Rows, res.DeletedRows)
	fprintf(w, "%12s %8s %12s %14s\n", "", "sealed", "memory(B)", "scan work")
	fprintf(w, "%12s %8d %12d %14d\n", "pre-delete", res.SealedBefore, res.MemBefore, res.WorkBefore)
	fprintf(w, "%12s %8d %12d %14d\n", "compacted", res.SealedAfter, res.MemAfter, res.WorkAfter)
	fprintf(w, "reclaimed %d rows in %d passes; live tombstones %d\n",
		res.ReclaimedRows, res.CompactionPasses, res.Tombstones)
	return res, nil
}
