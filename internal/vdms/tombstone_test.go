package vdms

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// Search under tombstones: every index type over one and two shards, with
// more deleted rows awaiting compaction than HNSW's ef or SCANN's
// reorder_k. Both goldens were recorded at the parent of the commit that
// moved tombstone removal from a filter over k+T-wide results to the
// point where each candidate is offered, through that filter.

// tombstonedCollection loads rows into a fresh typ collection at the given
// shard count, flushes, deletes every 7th id with compaction held off
// (trigger ratio 0.95; at this segment sizing no two undersized neighbors
// fit one merge), and checks that every deleted id is still a tombstone.
func tombstonedCollection(t *testing.T, typ index.Type, shards int, rows [][]float32) *Collection {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IndexType = typ
	cfg.ShardCount = shards
	cfg.Parallelism = 2
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.8
	cfg.CompactionTriggerRatio = 0.95
	cfg.Build = index.BuildParams{NList: 16, M: 4, NBits: 6, HNSWM: 8, EfConstruction: 32, Seed: 3}
	cfg.Search = index.SearchParams{NProbe: 4, Ef: 32, ReorderK: 40}
	coll, err := NewCollection(cfg, linalg.L2, len(rows[0]), len(rows))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coll.Close() })
	ids, err := coll.Insert(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for i := 0; i < len(ids); i += 7 {
		dead = append(dead, ids[i])
	}
	if _, err := coll.Delete(dead); err != nil {
		t.Fatal(err)
	}
	if err := coll.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := coll.Stats().Tombstones; got != len(dead) {
		t.Fatalf("%d tombstones after deleting %d ids: compaction was not held off", got, len(dead))
	}
	return coll
}

// hashStats folds a Stats value into a result hash.
func hashStats(h uint64, st index.Stats) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{h, uint64(st.DistComps), uint64(st.CodeComps), uint64(st.Lookups)} {
		binary.LittleEndian.PutUint64(b[:], v)
		f.Write(b[:])
	}
	return f.Sum64()
}

// hashDists folds result lists — lengths and distance bits, in rank order,
// but not ids — into one value.
func hashDists(res [][]linalg.Neighbor) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for _, r := range res {
		binary.LittleEndian.PutUint64(b[:], uint64(len(r)))
		f.Write(b[:])
		for _, nb := range r {
			binary.LittleEndian.PutUint64(b[:], uint64(math.Float32bits(nb.Dist)))
			f.Write(b[:])
		}
	}
	return f.Sum64()
}

// tombstoneGolden is, per "TYPE/shards=S", the hash of a 40-query k=10
// SearchBatch's ids, distance bits and Stats over 3 000 random 16-d rows
// holding 429 tombstones.
var tombstoneGolden = map[string]uint64{
	"FLAT/shards=1":      0x3c1dd0306accb0df,
	"FLAT/shards=2":      0x3c1dd0306accb0df,
	"IVF_FLAT/shards=1":  0x864d4d8c3647fb29,
	"IVF_FLAT/shards=2":  0x3cf91c5aaff4e20f,
	"IVF_SQ8/shards=1":   0xbc2fa91c322ab429,
	"IVF_SQ8/shards=2":   0x2b22e665c41aaafe,
	"IVF_PQ/shards=1":    0x9807eaf457d4a703,
	"IVF_PQ/shards=2":    0xbcfe8be3a7803287,
	"HNSW/shards=1":      0x4d51261d26e2743d,
	"HNSW/shards=2":      0xdee47ab50ab32d92,
	"SCANN/shards=1":     0xc59e443746ae924a,
	"SCANN/shards=2":     0xe3f46fca245e16e4,
	"AUTOINDEX/shards=1": 0xd4463348e9dc4aec,
	"AUTOINDEX/shards=2": 0xc33109a1f1c3658a,
}

// tombstoneTieGolden is the same run over rows with 200 exact duplicates
// and queries equal to stored rows, hashing only each rank's distance bits
// and the Stats: which of several exactly tied ids fills a slot is the
// tie rule's choice, the distances it returns are not.
var tombstoneTieGolden = map[string]uint64{
	"FLAT/shards=1":      0x144ea600f9d75ef9,
	"FLAT/shards=2":      0x144ea600f9d75ef9,
	"IVF_FLAT/shards=1":  0xf4b14b3bf5eeb26b,
	"IVF_FLAT/shards=2":  0xbe38779d3172110d,
	"IVF_SQ8/shards=1":   0x91611eda78a602a2,
	"IVF_SQ8/shards=2":   0x9ce3042acf056d7d,
	"IVF_PQ/shards=1":    0xd32314c0e47847cb,
	"IVF_PQ/shards=2":    0xd268af6e02962dc6,
	"HNSW/shards=1":      0x35b99b199080ce83,
	"HNSW/shards=2":      0xc00f1cdc87a554f1,
	"SCANN/shards=1":     0xc62541ac598f5091,
	"SCANN/shards=2":     0x9c956deac00d0f15,
	"AUTOINDEX/shards=1": 0xd07b509ec7ad0b2e,
	"AUTOINDEX/shards=2": 0x46bb1754395d76cf,
}

func TestSearchUnderTombstonesGolden(t *testing.T) {
	const dim, n, k = 16, 3000, 10
	rows := randVecs(n, dim, 61)
	qs := randVecs(40, dim, 62)
	tieRows := randVecs(n, dim, 63)
	for i := 0; i < 200; i++ {
		copy(tieRows[n-200+i], tieRows[i*13])
	}
	tieQs := make([][]float32, 40)
	for j := range tieQs {
		tieQs[j] = linalg.Clone(tieRows[(j*13*5)%n])
	}
	for _, typ := range index.AllTypes() {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%v/shards=%d", typ, shards)
			t.Run(name, func(t *testing.T) {
				var st index.Stats
				res, err := tombstonedCollection(t, typ, shards, rows).SearchBatch(qs, k, &st)
				if err != nil {
					t.Fatal(err)
				}
				var tieSt index.Stats
				tieRes, err := tombstonedCollection(t, typ, shards, tieRows).SearchBatch(tieQs, k, &tieSt)
				if err != nil {
					t.Fatal(err)
				}
				got, gotTie := hashStats(hashResults(res), st), hashStats(hashDists(tieRes), tieSt)
				if want := tombstoneGolden[name]; got != want {
					t.Errorf("results %#x, golden %#x", got, want)
				}
				if want := tombstoneTieGolden[name]; gotTie != want {
					t.Errorf("tied distances %#x, golden %#x", gotTie, want)
				}
			})
		}
	}
}
