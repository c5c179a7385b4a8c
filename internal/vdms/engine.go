package vdms

import (
	"fmt"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/workload"
)

// Instance is the tuner's steady-state model of a collection serving a
// dataset under one configuration: the rows laid out the way a long-running
// engine would hold them — sealed (indexed) segments plus a growing tail
// that is brute-force searched, as in Milvus — in one memory-only shard of
// the engine vdmsd serves (shard.go), plus the modelled costs the simulated
// clock charges on top. Nothing here builds or searches an index itself.
// The shard is never written after Open, so Search takes no lock and is
// safe for concurrent use; churn (deletes, tombstone GC, compaction) is the
// live Collection's domain.
type Instance struct {
	sh *shard

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

// Open lays the dataset out according to cfg's steady-state segment model,
// builds the per-segment indexes, and returns a searchable instance.
func Open(ds *workload.Dataset, cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(ds.Vectors)
	if n == 0 {
		return nil, fmt.Errorf("vdms: empty dataset")
	}

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
	sh := newShard(&configGen{cfg: cfg}, ds.Metric, ds.Dim, sealRows)
	sh.rows, sh.nextID = int64(n), int64(n)
	sh.viewSegments = true
	inst := &Instance{sh: sh}
	// Segments build from contiguous row-range views of the dataset
	// arena — no per-segment copy of the raw vectors.
	segs := make([]*sealedSegment, numSealed)
	row := 0
	for i := range segs {
		end := row + sealRows
		if end > sealedRows {
			end = sealedRows
		}
		segs[i] = &sealedSegment{seq: int64(i), store: store.Slice(row, end), ids: ids[row:end]}
		row = end
	}
	// The builds overlap on every core. That pool is wall-clock only, like
	// Evaluate's replay pool: the simulated clock below charges buildPool.
	lands, errs := sh.buildSegments(0, segs)
	if err := firstError(errs); err != nil {
		return nil, err
	}
	var buildWork index.Stats
	for i, seg := range segs {
		sh.insertSealedLocked(seg)
		sh.landSegmentLocked(seg, lands[i], nil)
		buildWork.Add(seg.idx.BuildStats())
	}
	inst.segments = numSealed
	if growing > 0 {
		sh.growing, sh.growingIDs = store.Slice(row, n), ids[row:]
		inst.segments++
	}
	inst.extraScanRows = int64(bufRows/2 + flushRows)
	inst.pendingFraction = (float64(growing) + float64(inst.extraScanRows)) / float64(n)
	if inst.pendingFraction > 1 {
		inst.pendingFraction = 1
	}

	// Simulated build time: index work stretched by simBuildFactor,
	// parallelized over the build pool, plus data load at ~100 MB/s.
	buildPool := float64(cfg.Parallelism)
	if buildPool > 8 {
		buildPool = 8
	}
	buildNs := workNanos(buildWork, ds.Dim)
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
	// + fixed engine overhead.
	bytesPerRow := int64(ds.Dim) * 4
	var mem int64
	for _, seg := range sh.sealed {
		mem += seg.idx.MemoryBytes()
	}
	mem += int64(growing) * bytesPerRow * 2
	mem += int64(bufRows) * bytesPerRow
	mem += ds.RawBytes() / 8
	inst.memoryBytes = mem
	if float64(mem) > memBudgetMultiple*float64(ds.RawBytes()) {
		return nil, &FailureError{Reason: fmt.Sprintf("memory %d exceeds budget", mem)}
	}
	return inst, nil
}

// Search answers one query: the shard probe on the one-query tile — every
// sealed segment's index in seq order, then the brute-force scan of the
// growing tail, into one collector — with the work performed reported into
// st (which may be nil).
func (in *Instance) Search(q []float32, k int, st *index.Stats) []linalg.Neighbor {
	var ps probeScratch
	res := in.sh.searchMultiLocked([][]float32{q}, in.sh.metric, k, st, &ps)[0]
	if st != nil && in.extraScanRows > 0 {
		// Insert-buffer scan: duplicates recent rows, so it costs work
		// without changing results.
		st.Add(index.Stats{DistComps: in.extraScanRows})
	}
	return res
}
