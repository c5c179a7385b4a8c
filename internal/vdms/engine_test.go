package vdms

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
	"vdtuner/internal/workload"
)

// One-engine tests: the tuner's Instance and the served Collection are the
// same segments behind the same probe, a sealed segment is one struct
// whether or not its index has landed, and every routed batch is split by
// the one partition.

// TestInstanceSearchMatchesCollection: on a configuration whose
// steady-state model has no growing tail and no insert-buffer charge, the
// tuner's Instance and a Collection loaded with the same rows hold the same
// segments (same row ranges, same seqs, so the same build seeds), and the
// same probe must answer every query with the same ids, the same distance
// bits and the same work.
func TestInstanceSearchMatchesCollection(t *testing.T) {
	ds, err := workload.Load(workload.Spec{
		Name: "one-engine", N: 250, NQ: 20, Dim: 24, K: 10,
		Clusters: 6, ClusterStd: 0.5, Correlated: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IndexType = index.Flat
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.25 // 48-row segments: five full ones and a 10-row tail
	cfg.InsertBufSize = 64
	cfg.FlushInterval = 1
	inst, err := Open(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := NewCollection(cfg, ds.Metric, ds.Dim, len(ds.Vectors))
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := coll.Insert(ds.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := inst.segments, coll.Stats().Sealed; got != want || want != 6 {
		t.Fatalf("instance models %d segments, collection sealed %d, want 6 and 6 (a growing tail would void the comparison)", got, want)
	}
	for qi, q := range ds.Queries {
		var ist, cst index.Stats
		ires := inst.Search(q, ds.K, &ist)
		cres, err := coll.Search(q, ds.K, &cst)
		if err != nil {
			t.Fatal(err)
		}
		if len(ires) != len(cres) || len(ires) != ds.K {
			t.Fatalf("query %d: instance returned %d, collection %d", qi, len(ires), len(cres))
		}
		for i := range ires {
			if ires[i].ID != cres[i].ID || math.Float32bits(ires[i].Dist) != math.Float32bits(cres[i].Dist) {
				t.Fatalf("query %d rank %d: instance %+v, collection %+v", qi, i, ires[i], cres[i])
			}
		}
		if ist != cst {
			t.Fatalf("query %d: instance did %+v, collection %+v", qi, ist, cst)
		}
	}
}

// TestEvaluateAgreesWithServedEngineOnAngular pins the drift the two
// engines had: a window dataset built the way vdmsd -tune builds it — the
// normalized rows an angular engine stores, the raw queries it was sent,
// linalg.Angular — must score on the tuner's side what the served engine
// answers. The tuner's layout model differs from a freshly flushed
// collection's (a modelled growing tail, other segment boundaries), hence
// a tolerance rather than equality.
func TestEvaluateAgreesWithServedEngineOnAngular(t *testing.T) {
	gen, err := workload.Load(workload.GloVeLike(0.25))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float32, len(gen.Vectors))
	for i, v := range gen.Vectors {
		rows[i] = linalg.Clone(v)
	}
	raw := make([][]float32, len(gen.Queries))
	for i, q := range gen.Queries {
		raw[i] = linalg.Clone(q)
		linalg.Scale(raw[i], 0.3+float32(i)) // what a client sends: nowhere near unit length
	}
	sent := make([][]float32, len(raw))
	for i, q := range raw {
		sent[i] = linalg.Clone(q)
	}
	ds, err := workload.FromLive("angular-window", linalg.Angular, rows, raw, gen.K)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Metric == linalg.Angular {
		t.Fatal("FromLive returned a dataset still carrying Angular")
	}
	if !reflect.DeepEqual(raw, sent) {
		t.Fatal("FromLive normalized the caller's query window in place")
	}

	served := func(cfg Config) float64 {
		coll, err := NewCollection(cfg, linalg.Angular, ds.Dim, len(rows))
		if err != nil {
			t.Fatal(err)
		}
		defer coll.Close()
		if _, err := coll.Insert(rows); err != nil {
			t.Fatal(err)
		}
		if err := coll.Flush(); err != nil {
			t.Fatal(err)
		}
		res, err := coll.SearchBatch(sent, ds.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for qi := range res {
			sum += ds.Recall(qi, res[qi])
		}
		return sum / float64(len(res))
	}
	for _, typ := range []index.Type{index.Flat, index.IVFFlat, index.IVFSQ8, index.IVFPQ, index.SCANN, index.HNSW} {
		cfg := DefaultConfig()
		cfg.IndexType = typ
		cfg.Search.NProbe = 4
		res := Evaluate(ds, cfg)
		if res.Failed {
			t.Fatalf("%v: %s", typ, res.FailReason)
		}
		got := served(cfg)
		t.Logf("%-8v tuner recall %.3f, served recall %.3f", typ, res.Recall, got)
		if typ == index.Flat {
			if res.Recall != 1 || got != 1 {
				t.Fatalf("FLAT is exact: tuner recall %v, served recall %v", res.Recall, got)
			}
			continue
		}
		if math.Abs(res.Recall-got) > 0.05 {
			t.Fatalf("%v: the tuner scores recall %.3f on a configuration the served engine answers at %.3f", typ, res.Recall, got)
		}
	}
}

// TestPartitionMatchesShardFor: the one batch split equals routing every
// id on its own, batch order kept inside every shard, vectors riding along
// with their ids (or absent, for deletes) — and a warmed partition splits
// without allocating.
func TestPartitionMatchesShardFor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p partition
	for _, shards := range []int{1, 2, 3, 8, 16} {
		for _, n := range []int{0, 1, 5, 300} { // 5 rows over 16 shards leaves most shards empty
			ids := make([]int64, n)
			vecs := make([][]float32, n)
			for i := range ids {
				ids[i] = rng.Int63n(1 << 40)
				if i%7 == 0 {
					ids[i] = -ids[i] // a delete may name any id
				}
				vecs[i] = []float32{float32(i)}
			}
			for _, withVecs := range []bool{true, false} {
				in := vecs
				if !withVecs {
					in = nil
				}
				p.split(ids, in, shards)
				if len(p.ids) != shards || len(p.vecs) != shards {
					t.Fatalf("S=%d: %d id parts, %d vector parts", shards, len(p.ids), len(p.vecs))
				}
				want := make([][]int, shards) // batch positions, in batch order
				for i, id := range ids {
					s := shardFor(id, shards)
					want[s] = append(want[s], i)
				}
				for s := range want {
					if len(p.ids[s]) != len(want[s]) {
						t.Fatalf("S=%d n=%d shard %d: %d ids, want %d", shards, n, s, len(p.ids[s]), len(want[s]))
					}
					if !withVecs && p.vecs[s] != nil {
						t.Fatalf("S=%d shard %d: a batch without vectors produced a vector part", shards, s)
					}
					for j, i := range want[s] {
						if p.ids[s][j] != ids[i] {
							t.Fatalf("S=%d shard %d slot %d: id %d, want %d (batch order lost)", shards, s, j, p.ids[s][j], ids[i])
						}
						if withVecs && &p.vecs[s][j][0] != &vecs[i][0] {
							t.Fatalf("S=%d shard %d slot %d: vector does not belong to id %d", shards, s, j, ids[i])
						}
					}
				}
				if !raceEnabled {
					if a := testing.AllocsPerRun(20, func() { p.split(ids, in, shards) }); a != 0 {
						t.Fatalf("S=%d n=%d: a warmed partition allocates %.0f times per split", shards, n, a)
					}
				}
			}
		}
	}
}

// inFlightShard drives one memory-only shard by hand: 120 rows sealed with
// the index still pending (the seal step, without the build goroutine
// sealLocked would start), then 30 growing rows.
func inFlightShard(t *testing.T, vecs [][]float32) (*Collection, *shard, *sealedSegment) {
	t.Helper()
	cfg := liveConfig()
	coll, err := NewCollection(cfg, linalg.L2, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coll.Close() })
	s := coll.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range vecs[:120] {
		s.applyInsertRowLocked(int64(i), v)
	}
	seg := s.sealGrowingLocked(s.sealSeq)
	s.sealSeq++
	for i, v := range vecs[120:] {
		s.applyInsertRowLocked(int64(120+i), v)
	}
	coll.nextID.Store(int64(len(vecs)))
	return coll, s, seg
}

// TestInFlightSegmentIsOneStruct holds a shard in the state between a seal
// and its build landing and checks everything the separate "sealing" list
// used to be looped over for: the segment is searched (exactly), counted,
// deletable with its dead count kept once, snapshotted, and lands into the
// state an undisturbed run reaches.
func TestInFlightSegmentIsOneStruct(t *testing.T) {
	vecs := randVecs(150, 8, 77)
	coll, s, seg := inFlightShard(t, vecs)
	if seg.idx != nil || len(s.sealed) != 1 || s.sealed[0] != seg {
		t.Fatalf("sealed step left %d segments, idx pending = %v", len(s.sealed), seg.idx == nil)
	}
	if st := coll.Stats(); st.Sealing != 1 || st.Sealed != 0 || st.GrowingRows != 30 || st.Rows != 150 {
		t.Fatalf("in-flight stats: %+v", st)
	}
	// Exact while pending: a stored row finds itself at distance 0 wherever
	// it lives, and the scan is charged as a scan (150 rows, no index work).
	for _, id := range []int64{7, 119, 149} {
		var st index.Stats
		res, err := coll.Search(vecs[id], 3, &st)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("row %d not found exactly while its segment is in flight: %+v", id, res)
		}
		if st.DistComps != 150 {
			t.Fatalf("in-flight probe computed %d distances, want an exact scan of 150", st.DistComps)
		}
	}
	// A delete lands on the pending segment itself.
	if n, err := coll.Delete([]int64{5, 60, 130}); err != nil || n != 3 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if seg.dead != 2 || coll.Stats().Tombstones != 2 {
		t.Fatalf("pending segment counts %d dead, %d tombstones; want 2 and 2 (the growing row is pruned)", seg.dead, coll.Stats().Tombstones)
	}
	if res, _ := coll.Search(vecs[60], 1, nil); res[0].ID == 60 {
		t.Fatal("deleted in-flight row still returned")
	}
	// A snapshot taken meanwhile carries the segment as rows + seq.
	s.mu.Lock()
	snap := s.snapshotLocked()
	s.mu.Unlock()
	if len(snap.Segments) != 1 || snap.Segments[0].Seq != 0 || len(snap.Segments[0].IDs) != 120 ||
		snap.Growing.Rows() != 29 || !reflect.DeepEqual(snap.Tombstones, []int64{5, 60}) {
		t.Fatalf("in-flight snapshot: %d segments, growing %d, tombstones %v", len(snap.Segments), snap.Growing.Rows(), snap.Tombstones)
	}
	// The build, and its landing, by hand.
	l, err := s.buildSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.landSegmentLocked(seg, l, nil)
	s.mu.Unlock()
	if seg.idx == nil || seg.dead != 2 {
		t.Fatalf("landed segment: idx set = %v, dead = %d (want counted once: 2)", seg.idx != nil, seg.dead)
	}
	if st := coll.Stats(); st.Sealing != 0 || st.Sealed != 1 || st.Tombstones != 2 || st.Rows != 147 {
		t.Fatalf("landed stats: %+v", st)
	}

	// The undisturbed run: same rows, same deletes, through the public API.
	ref, err := NewCollection(liveConfig(), linalg.L2, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Insert(vecs[:120]); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Insert(vecs[120:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Delete([]int64{5, 60, 130}); err != nil {
		t.Fatal(err)
	}
	queries := randVecs(16, 8, 78)
	var gst, wst index.Stats
	got, err := coll.SearchBatch(queries, 10, &gst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SearchBatch(queries, 10, &wst)
	if err != nil {
		t.Fatal(err)
	}
	if hashResults(got) != hashResults(want) || gst != wst {
		t.Fatalf("hand-landed shard answers %#x (%+v), undisturbed run %#x (%+v)", hashResults(got), gst, hashResults(want), wst)
	}
	gs, ws := coll.Stats(), ref.Stats()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("hand-landed stats %+v, undisturbed %+v", gs, ws)
	}
}

// TestInFlightBuildFailureRequeues: when the pending segment's build fails,
// the segment leaves the list and its live rows are growing rows again;
// rows deleted meanwhile are gone for good, tombstones included.
func TestInFlightBuildFailureRequeues(t *testing.T) {
	vecs := randVecs(150, 8, 77)
	coll, s, seg := inFlightShard(t, vecs)
	if _, err := coll.Delete([]int64{5, 60}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.landSegmentLocked(seg, landing{}, errInjectedBuild)
	s.mu.Unlock()
	if st := coll.Stats(); st.Sealing != 0 || st.Sealed != 0 || st.GrowingRows != 148 || st.Tombstones != 0 || st.Rows != 148 {
		t.Fatalf("after a failed build: %+v", st)
	}
	if res, _ := coll.Search(vecs[7], 1, nil); res[0].ID != 7 || res[0].Dist != 0 {
		t.Fatalf("requeued row lost: %+v", res)
	}
	if err := coll.Flush(); err != errInjectedBuild {
		t.Fatalf("Flush = %v, want the recorded build error", err)
	}
}

var errInjectedBuild = &FailureError{Reason: "injected build failure"}

// TestInFlightSnapshotBytesGolden: the snapshot of a shard with two builds
// in flight, a delete on each and a pruned growing row, byte for byte what
// the engine wrote when in-flight segments lived in their own list
// (recorded there: sealed ∪ sealing, re-sorted by seq).
func TestInFlightSnapshotBytesGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 4
	coll, err := NewCollection(cfg, linalg.L2, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(300, 8, 77)
	s := coll.shards[0]
	s.mu.Lock()
	for i, v := range vecs[:120] {
		s.applyInsertRowLocked(int64(i), v)
	}
	s.sealLocked() // segment 0: cannot land before the lock is released
	for i, v := range vecs[120:240] {
		s.applyInsertRowLocked(int64(120+i), v)
	}
	s.sealLocked() // segment 1
	for i, v := range vecs[240:] {
		s.applyInsertRowLocked(int64(240+i), v)
	}
	s.deleteLocked([]int64{5, 130, 250}, nil)
	snap := s.snapshotLocked()
	s.mu.Unlock()
	h := fnv.New64a()
	h.Write(persist.EncodeSnapshot(snap))
	if got, want := h.Sum64(), uint64(0x457806dde79bba5); got != want || len(snap.Segments) != 2 {
		t.Fatalf("in-flight snapshot hashes to %#x over %d segments, want %#x over 2", got, len(snap.Segments), want)
	}
}

// fiveSegments lays ds's first 5×rows rows out as five sealed segments of a
// fresh memory-only shard, index pending and not yet in the list: what Open
// hands to buildSegments.
func fiveSegments(ds *workload.Dataset, cfg Config, rows int) (*shard, []*sealedSegment) {
	s := newShard(&configGen{cfg: cfg}, ds.Metric, ds.Dim, rows)
	store, ids := ds.Store(), ds.IDs()
	segs := make([]*sealedSegment, 5)
	for i := range segs {
		segs[i] = &sealedSegment{seq: int64(i), store: store.Slice(i*rows, (i+1)*rows), ids: ids[i*rows : (i+1)*rows]}
	}
	return s, segs
}

// TestOpenSegmentBuildsWorkerInvariant: the pool that overlaps Open's
// segment builds shows in nothing but the wall clock. Five segments built
// one at a time and eight at a time carry the same BuildStats and answer
// every query with the same ids, distance bits and work, and Evaluate —
// whose Open sizes the pool from GOMAXPROCS — returns the same Result on
// one CPU and on eight.
func TestOpenSegmentBuildsWorkerInvariant(t *testing.T) {
	ds, err := workload.Load(workload.Spec{
		Name: "open-builds", N: 1000, NQ: 20, Dim: 24, K: 10,
		Clusters: 6, ClusterStd: 0.5, Correlated: true, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []index.Type{index.HNSW, index.IVFPQ, index.Flat} {
		t.Run(typ.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IndexType = typ
			cfg.Build = index.BuildParams{NList: 8, M: 4, NBits: 4, HNSWM: 6, EfConstruction: 40}
			cfg.Search = index.SearchParams{NProbe: 4, Ef: 32}
			cfg.SegmentMaxSize = 512
			cfg.SealProportion = 0.2 // 200-row segments: five, no partial one
			cfg.InsertBufSize = 64
			cfg.FlushInterval = 1
			probe := func(workers int) ([]index.Stats, uint64, index.Stats) {
				s, segs := fiveSegments(ds, cfg, 200)
				lands, errs := s.buildSegments(workers, segs)
				if err := firstError(errs); err != nil {
					t.Fatal(err)
				}
				built := make([]index.Stats, len(segs))
				for i, seg := range segs {
					seg.land(lands[i])
					built[i] = seg.idx.BuildStats()
					s.insertSealedLocked(seg)
				}
				var st index.Stats
				var ps probeScratch
				res := s.searchMultiLocked(ds.Queries, ds.Metric, ds.K, &st, &ps)
				return built, hashResults(res), st
			}
			b1, h1, st1 := probe(1)
			b8, h8, st8 := probe(8)
			if !reflect.DeepEqual(b1, b8) {
				t.Fatalf("BuildStats differ: workers=1 %+v, workers=8 %+v", b1, b8)
			}
			if h1 != h8 || st1 != st8 {
				t.Fatalf("search differs: workers=1 %#x (%+v), workers=8 %#x (%+v)", h1, st1, h8, st8)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			r1 := Evaluate(ds, cfg)
			runtime.GOMAXPROCS(8)
			if r8 := Evaluate(ds, cfg); r1 != r8 || r1.Failed {
				t.Fatalf("Evaluate at GOMAXPROCS=1 %+v, at 8 %+v", r1, r8)
			}
		})
	}
}

// TestSegmentBuildsReturnLowestSeqError: overlapped builds finish in any
// order, so the error that surfaces is chosen by seq, not by time — the one
// a one-at-a-time loop would have stopped at.
func TestSegmentBuildsReturnLowestSeqError(t *testing.T) {
	ds, err := workload.Load(workload.Spec{Name: "open-errors", N: 500, NQ: 1, Dim: 8, K: 1, Clusters: 2, ClusterStd: 0.5, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IndexType = index.HNSW
	s, segs := fiveSegments(ds, cfg, 100)
	// An id list shorter than its arena is refused by every index's Build.
	segs[3].ids = segs[3].ids[:99]
	segs[1].ids = segs[1].ids[:99]
	lands, errs := s.buildSegments(8, segs)
	for i := range segs {
		if failed := i == 1 || i == 3; (errs[i] != nil) != failed || (lands[i].idx == nil) != failed {
			t.Fatalf("segment %d: index set = %v, err = %v", i, lands[i].idx != nil, errs[i])
		}
	}
	if err := firstError(errs); err != errs[1] || !strings.Contains(err.Error(), "building segment 1:") {
		t.Fatalf("surfaced %v, want segment 1's error", err)
	}
}
