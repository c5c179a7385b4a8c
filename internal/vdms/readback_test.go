package vdms

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
)

// Sealed rows are held once: a landed segment whose index keeps every row
// at full precision reads its rows back from the index's arena (see
// sealedSegment). These tests pin that the read-back is bit-exact, that
// the memory it frees is really freed, and that Stats counts what is held.

// typeConfig is a small configuration of index type typ: every type's
// build and search parameters set for 8-d rows, 150-row segments at an
// expected 600 rows (512 × 0.25 × 600 / 512).
func typeConfig(typ index.Type) Config {
	cfg := DefaultConfig()
	cfg.IndexType = typ
	cfg.Parallelism = 2
	cfg.Build = index.BuildParams{NList: 8, M: 4, NBits: 4, HNSWM: 8, EfConstruction: 40}
	cfg.Search = index.SearchParams{NProbe: 4, Ef: 32, ReorderK: 20}
	return cfg
}

// permuted reports whether a landed segment of type typ reads its rows
// back through a permutation: the IVF payloads that keep raw rows group
// them cell-major.
func permuted(typ index.Type) bool { return typ == index.IVFFlat || typ == index.SCANN }

// lossy reports whether type typ's index keeps only codes, so its
// segments keep their own arena beside it.
func lossy(typ index.Type) bool { return typ == index.IVFSQ8 || typ == index.IVFPQ }

// liveRowsHash hashes the (id, row bits) sequence forEachLiveRowLocked
// yields. Callers hold s.mu.
func liveRowsHash(s *shard) (uint64, int) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	n := 0
	s.forEachLiveRowLocked(func(id int64, row []float32, _ bool) bool {
		put(uint64(id))
		for _, v := range row {
			put(uint64(math.Float32bits(v)))
		}
		n++
		return true
	})
	return h.Sum64(), n
}

// TestReadBackBitExact: for every index type, landing an index changes
// nothing a reader of the segment's rows sees — forEachLiveRowLocked (the
// walk sampling and migration capture use) yields the same id and row bits
// in the same order, and the snapshot encodes to the same bytes, as while
// the builds were in flight.
func TestReadBackBitExact(t *testing.T) {
	vecs := randVecs(330, 8, 91)
	for _, typ := range index.AllTypes() {
		t.Run(typ.String(), func(t *testing.T) {
			coll, err := NewCollection(typeConfig(typ), linalg.L2, 8, 600)
			if err != nil {
				t.Fatal(err)
			}
			defer coll.Close()
			s := coll.shards[0]
			s.mu.Lock()
			for i, v := range vecs[:150] {
				s.applyInsertRowLocked(int64(i), v)
			}
			s.sealLocked() // cannot land before the lock is released
			for i, v := range vecs[150:300] {
				s.applyInsertRowLocked(int64(150+i), v)
			}
			s.sealLocked()
			for i, v := range vecs[300:] {
				s.applyInsertRowLocked(int64(300+i), v)
			}
			s.deleteLocked([]int64{3, 149, 150, 310}, nil)
			pendingHash, pendingRows := liveRowsHash(s)
			pendingSnap := persist.EncodeSnapshot(s.snapshotLocked())
			s.mu.Unlock()

			if err := s.quiesce(); err != nil {
				t.Fatal(err)
			}
			s.mu.RLock()
			defer s.mu.RUnlock()
			for _, seg := range s.sealed {
				if seg.idx == nil {
					t.Fatalf("segment %d did not land", seg.seq)
				}
				if got := len(seg.pos) > 0; got != permuted(typ) {
					t.Fatalf("segment %d reads back through a permutation: %v, want %v", seg.seq, got, permuted(typ))
				}
				if arena, _ := seg.idx.RawRows(); (arena == seg.store) == lossy(typ) {
					t.Fatalf("segment %d: reads its rows from the index's arena = %v, want %v", seg.seq, arena == seg.store, !lossy(typ))
				}
			}
			landedHash, landedRows := liveRowsHash(s)
			if landedHash != pendingHash || landedRows != pendingRows || pendingRows != 326 {
				t.Fatalf("live rows after landing hash to %#x over %d rows, before %#x over %d (want 326)", landedHash, landedRows, pendingHash, pendingRows)
			}
			if landedSnap := persist.EncodeSnapshot(s.snapshotLocked()); string(landedSnap) != string(pendingSnap) {
				t.Fatalf("snapshot bytes changed when the builds landed (%d bytes, were %d)", len(landedSnap), len(pendingSnap))
			}
		})
	}
}

// TestLandedSnapshotBytesGolden: a durable IVF_FLAT and a durable SCANN
// collection with every build landed — segments reading their rows back
// from the index's cell-major arena — snapshot byte for byte what the
// engine wrote when each segment kept its own id-ordered arena (hashes
// recorded there). The last two segments (99 and 30 live rows) merge, so a
// compaction replacement is among the three.
func TestLandedSnapshotBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		typ  index.Type
		want uint64
	}{
		{index.IVFFlat, 0x74f9b5ead58e4e60},
		{index.SCANN, 0xf2d3d816ab4f5419},
	} {
		t.Run(tc.typ.String(), func(t *testing.T) {
			c, err := OpenDurable(t.TempDir(), typeConfig(tc.typ), linalg.L2, 8, 600)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ids, err := c.Insert(randVecs(400, 8, 93))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Delete([]int64{ids[7], ids[200], ids[399]}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert(randVecs(30, 8, 94)); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			s := c.shards[0]
			s.mu.Lock()
			snap := s.snapshotLocked()
			s.mu.Unlock()
			for _, seg := range snap.Segments {
				if seg.Order == nil {
					t.Fatalf("segment %d snapshots from its own arena, want the index's", seg.Seq)
				}
			}
			h := fnv.New64a()
			h.Write(persist.EncodeSnapshot(snap))
			if got := h.Sum64(); got != tc.want || len(snap.Segments) != 3 {
				t.Fatalf("landed snapshot hashes to %#x over %d segments, want %#x over 3", got, len(snap.Segments), tc.want)
			}
		})
	}
}

// TestServedMemoryMatchesModel: on a collection with no growing tail,
// Stats().MemoryBytes is exactly what the segments hold — each index's
// MemoryBytes, plus 4 B a row for the segments that read their rows back
// through a permutation, plus the segment's own arena only where the index
// keeps codes alone (IVF_SQ8, IVF_PQ).
func TestServedMemoryMatchesModel(t *testing.T) {
	const dim, n = 8, 450
	vecs := randVecs(n, dim, 95)
	for _, typ := range index.AllTypes() {
		t.Run(typ.String(), func(t *testing.T) {
			coll, err := NewCollection(typeConfig(typ), linalg.L2, dim, 600)
			if err != nil {
				t.Fatal(err)
			}
			defer coll.Close()
			if _, err := coll.Insert(vecs); err != nil {
				t.Fatal(err)
			}
			if err := coll.Flush(); err != nil {
				t.Fatal(err)
			}
			st := coll.Stats()
			if st.GrowingRows != 0 || st.Sealed != 3 || st.Sealing != 0 {
				t.Fatalf("layout: %+v, want 3 landed segments and no growing tail", st)
			}
			s := coll.shards[0]
			s.mu.RLock()
			defer s.mu.RUnlock()
			var want int64
			for _, seg := range s.sealed {
				rows := int64(len(seg.ids))
				want += seg.idx.MemoryBytes()
				if permuted(typ) {
					want += 4 * rows
				}
				if lossy(typ) {
					want += rows * dim * 4
				}
			}
			if st.MemoryBytes != want {
				t.Fatalf("Stats().MemoryBytes = %d, the model says %d", st.MemoryBytes, want)
			}
		})
	}
}

// TestSealedRowsHeldOnce: the saving is real, not bookkeeping. 20 000
// 100-d rows sealed into four IVF_FLAT (or SCANN) segments occupy, once
// the caller's input is dropped and the builds land, a live heap of at
// most 1.25× their raw bytes (plus SCANN's one-byte-per-dimension codes)
// — one copy of the rows, where keeping the segment's own arena beside the
// index's cell-major copy took over 2× — and Stats().MemoryBytes agrees
// with the measured heap within 15 %.
func TestSealedRowsHeldOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap measurements")
	}
	const n, dim = 20000, 100
	raw := int64(n) * dim * 4
	for _, tc := range []struct {
		typ   index.Type
		codes int64
	}{
		{index.IVFFlat, 0},
		{index.SCANN, int64(n) * dim},
	} {
		t.Run(tc.typ.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IndexType = tc.typ
			cfg.Build.NList = 64
			heap := func() int64 {
				runtime.GC()
				runtime.GC() // the second cycle also empties the sync.Pool victim caches
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			base := heap()
			coll, err := NewCollection(cfg, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			defer coll.Close()
			if _, err := coll.Insert(randVecs(n, dim, 97)); err != nil {
				t.Fatal(err)
			}
			if err := coll.Flush(); err != nil {
				t.Fatal(err)
			}
			live := heap() - base
			st := coll.Stats()
			if st.Sealed != 4 || st.GrowingRows != 0 {
				t.Fatalf("layout: %+v, want 4 landed segments and no growing tail", st)
			}
			t.Logf("%v: live heap %.3f× raw, Stats().MemoryBytes %.3f× raw", tc.typ, float64(live)/float64(raw), float64(st.MemoryBytes)/float64(raw))
			if limit := raw*5/4 + tc.codes; live > limit {
				t.Fatalf("live heap %d B over %d B of raw rows (limit %d B): the rows are held more than once", live, raw, limit)
			}
			if d := math.Abs(float64(st.MemoryBytes-live)) / float64(live); d > 0.15 {
				t.Fatalf("Stats().MemoryBytes %d B, measured heap %d B: %.0f %% apart", st.MemoryBytes, live, 100*d)
			}
		})
	}
}
