package vdms

import (
	"fmt"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/workload"
)

// Instance is an opened collection: the dataset partitioned into sealed
// (indexed) segments plus a growing tail that is brute-force searched, as
// in Milvus. Instances are immutable after Open and safe for concurrent
// Search calls. They model a delete-free snapshot: churn (deletes,
// tombstone GC, segment compaction) is the live Collection's domain — see
// live.go and compact.go.
type Instance struct {
	cfg Config
	ds  *workload.Dataset

	sealed     []index.Index
	growing    *linalg.Matrix // growing-tail view of the dataset arena
	growingIDs []int64

	// segments counts sealed segments plus the growing tail (if any).
	segments int
	// extraScanRows models the in-flight insert buffer and unflushed WAL
	// rows every query must additionally scan (they duplicate recent
	// corpus rows, so they add work but not results).
	extraScanRows int64
	// pendingFraction is the share of the corpus that is unindexed or
	// buffered, driving the consistency window.
	pendingFraction float64
	// bgLoad is the steady-state worker-equivalents consumed by
	// background index builds.
	bgLoad float64
	// buildSeconds is the simulated wall time of the initial load +
	// index build.
	buildSeconds float64
	// memoryBytes is the resident footprint.
	memoryBytes int64
}

// FailureError describes a configuration the engine cannot run (crash or
// resource exhaustion), mirroring configurations that crash Milvus or blow
// the memory budget. The tuner feeds such configurations worst-case
// observations rather than aborting.
type FailureError struct{ Reason string }

func (e *FailureError) Error() string { return "vdms: configuration failed: " + e.Reason }

// newSegmentIndex constructs the (unbuilt) index for the sealed segment
// with sequence number seq: the build seed is derived deterministically
// from the configuration seed and the sequence number, and the build
// worker pool is sized by the queryNode parallelism. Every layer that
// builds a segment — bulk load (Open), live sealing, compaction, and
// crash recovery — goes through this one derivation, which is what makes
// a recovered segment's index bit-identical to the one the pre-crash
// engine built or would have built.
func newSegmentIndex(cfg Config, m linalg.Metric, dim int, seq int64) (index.Index, error) {
	bp := cfg.Build
	bp.Seed = cfg.Build.Seed + seq*7919
	bp.Workers = cfg.Parallelism
	return index.New(cfg.IndexType, m, dim, bp)
}

// Open partitions the dataset according to cfg, builds the per-segment
// indexes, and returns a searchable instance.
func Open(ds *workload.Dataset, cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(ds.Vectors)
	if n == 0 {
		return nil, fmt.Errorf("vdms: empty dataset")
	}
	inst := &Instance{cfg: cfg, ds: ds}

	// Scaled segment model: segment_maxSize=512MB at sealProportion=1
	// corresponds to the full corpus; smaller budgets shard it. The
	// divisor 512 keeps the paper's [100, 2048] MB range meaningful at
	// our corpus scale.
	sealRows := sealRowsFor(cfg, n)
	// Steady-state unflushed rows: half-full insert buffer plus the
	// ingest accumulated over half a flush interval. Bulk-loaded data is
	// flushed and sealed (including a final partial segment), so only
	// these rows remain growing.
	bufRows := int(cfg.InsertBufSize / 8192 * float64(n))
	flushRows := int(ingestFraction * float64(n) * cfg.FlushInterval / 2)
	growing := bufRows/2 + flushRows
	if growing > n {
		growing = n
	}
	sealedRows := n - growing
	numSealed := (sealedRows + sealRows - 1) / sealRows
	if numSealed > maxSegments {
		return nil, &FailureError{Reason: fmt.Sprintf("segment count %d exceeds coordinator limit %d", numSealed, maxSegments)}
	}

	ids := ds.IDs()
	store := ds.Store()
	var buildWork index.Stats
	row := 0
	for s := 0; s < numSealed; s++ {
		end := row + sealRows
		if end > sealedRows {
			end = sealedRows
		}
		// queryNode parallelism doubles as the real build worker-pool
		// size; builds are deterministic for any value (see package
		// parallel), so the simulated results stay reproducible.
		idx, err := newSegmentIndex(cfg, ds.Metric, ds.Dim, int64(s))
		if err != nil {
			return nil, err
		}
		// Segments build from contiguous row-range views of the dataset
		// arena — no per-segment copy of the raw vectors.
		if err := idx.Build(store.Slice(row, end), ids[row:end]); err != nil {
			return nil, fmt.Errorf("vdms: building segment %d: %w", s, err)
		}
		buildWork.Add(idx.BuildStats())
		inst.sealed = append(inst.sealed, idx)
		row = end
	}
	inst.growing = store.Slice(row, n)
	inst.growingIDs = ids[row:]
	inst.segments = numSealed
	if inst.growing.Rows() > 0 {
		inst.segments++
	}
	inst.extraScanRows = int64(bufRows/2 + flushRows)
	inst.pendingFraction = (float64(inst.growing.Rows()) + float64(inst.extraScanRows)) / float64(n)
	if inst.pendingFraction > 1 {
		inst.pendingFraction = 1
	}

	// Simulated build time: index work stretched by simBuildFactor,
	// parallelized over the build pool, plus data load at ~100 MB/s.
	buildPool := float64(cfg.Parallelism)
	if buildPool > 8 {
		buildPool = 8
	}
	buildNs := workNanos(buildWork, ds.Dim, 1.0)
	loadSec := float64(ds.RawBytes()) / 100e6
	inst.buildSeconds = buildNs/1e9*simBuildFactor/buildPool + loadSec

	// Steady-state background load: seals per second times core-seconds
	// per seal.
	if numSealed > 0 {
		perSealCoreSec := buildNs / float64(numSealed) / 1e9 * simBuildFactor
		sealsPerSec := ingestFraction * float64(n) / float64(sealRows)
		inst.bgLoad = perSealCoreSec * sealsPerSec
	}

	// Memory: indexes + growing raw (plus its WAL copy) + insert buffer
	// + hot cache + fixed engine overhead.
	bytesPerRow := int64(ds.Dim) * 4
	var mem int64
	for _, idx := range inst.sealed {
		mem += idx.MemoryBytes()
	}
	mem += int64(inst.growing.Rows()) * bytesPerRow * 2
	mem += int64(bufRows) * bytesPerRow
	mem += int64(cfg.CacheRatio * float64(ds.RawBytes()))
	mem += ds.RawBytes() / 8
	inst.memoryBytes = mem
	if float64(mem) > memBudgetMultiple*float64(ds.RawBytes()) {
		return nil, &FailureError{Reason: fmt.Sprintf("memory %d exceeds budget", mem)}
	}
	return inst, nil
}

// Segments reports the number of active segments (sealed + growing tail).
func (in *Instance) Segments() int { return in.segments }

// MemoryBytes reports the instance's resident footprint.
func (in *Instance) MemoryBytes() int64 { return in.memoryBytes }

// BuildSeconds reports the simulated load + index build time.
func (in *Instance) BuildSeconds() float64 { return in.buildSeconds }

// Search answers one query: every sealed segment index and the brute-force
// scan of the growing tail offer their candidates, in that order, into one
// collector, and the work performed is reported into st (which may be
// nil).
func (in *Instance) Search(q []float32, k int, st *index.Stats) []linalg.Neighbor {
	top := linalg.NewTopK(k)
	for _, idx := range in.sealed {
		idx.SearchInto(q, k, in.cfg.Search, st, top)
	}
	index.ScanStoreMultiInto(in.ds.Metric, [][]float32{q}, in.growing, in.growingIDs, []*linalg.TopK{top}, st)
	if st != nil && in.extraScanRows > 0 {
		// Insert-buffer scan: duplicates recent rows, so it costs work
		// without changing results.
		st.Add(index.Stats{DistComps: in.extraScanRows})
	}
	return top.Results()
}
