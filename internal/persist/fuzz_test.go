package persist

import (
	"os"
	"path/filepath"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// The fuzz contract for both decoders: arbitrary (hostile, bit-rotted,
// torn) bytes either replay/decode cleanly or fail with a typed
// *CorruptError — never a panic, never an allocation the input length
// does not justify. `make fuzz-smoke` runs both targets for 30s each as
// part of `make ci`.

// walSeedCorpus builds a small real WAL and returns its file bytes: a
// version-2 file, whose seal and compaction records carry a shard.
func walSeedCorpus(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncAlways}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendInsert(0, [][]float32{{1, 2, 3}, {4, 5, 6}}, 3); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendInsertIDs([]int64{2, 6}, [][]float32{{7, 8, 9}, {10, 11, 12}}, 3); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendDelete([]int64{0, 7}); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendFlush(1, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AppendCompactCommit(1, 1, []int64{0}, []int64{1}, []int64{0}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFileName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzWALReplay(f *testing.F) {
	seed := walSeedCorpus(f)
	f.Add(seed)
	// The same records as the version-1 writer framed them, so both
	// decoders are fuzzed.
	v1, err := os.ReadFile(filepath.Join("testdata", "wal-v1.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(seed[:len(seed)-5])  // torn tail
	f.Add(seed[:walHeaderLen]) // header only
	f.Add([]byte{})            // empty file
	f.Add([]byte(walMagic))    // torn header
	mut := append([]byte(nil), seed...)
	mut[walHeaderLen+12] ^= 0x40 // flipped bit inside the first record
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		validEnd, nextLSN, err := ReplayBuffer("fuzz", data, 0, func(op *WALOp) error {
			// Touch every decoded field the way the engine's replay does,
			// so latent aliasing or bounds bugs surface under the fuzzer.
			switch op.Type {
			case RecInsert:
				if op.Count*op.Dim != len(op.Vectors) {
					t.Fatalf("insert decoded %d vectors for count %d dim %d", len(op.Vectors), op.Count, op.Dim)
				}
				var sum float32
				for _, v := range op.Vectors {
					sum += v
				}
				_ = sum
			case RecInsertIDs:
				if op.Count*op.Dim != len(op.Vectors) {
					t.Fatalf("insert-ids decoded %d vectors for count %d dim %d", len(op.Vectors), op.Count, op.Dim)
				}
				if op.Count != len(op.IDs) {
					t.Fatalf("insert-ids decoded %d ids for count %d", len(op.IDs), op.Count)
				}
				var sum float32
				for _, v := range op.Vectors {
					sum += v
				}
				_ = sum
			case RecDelete:
				for _, id := range op.IDs {
					_ = id
				}
			case RecFlush:
				_ = op.Seq
			case RecCompactCommit:
				_ = len(op.Sources) + len(op.LiveIDs) + len(op.Dropped)
			default:
				t.Fatalf("replay surfaced unknown record type %d", op.Type)
			}
			return nil
		})
		if err != nil && !isCorrupt(err) {
			t.Fatalf("non-corrupt error from hostile bytes: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside input of %d bytes", validEnd, len(data))
		}
		if nextLSN == 0 {
			t.Fatal("nextLSN underflowed to zero")
		}
	})
}

func snapshotSeedCorpus() []byte {
	store := linalg.NewMatrix(3, 2)
	store.AppendRow([]float32{1, 2, 3})
	store.AppendRow([]float32{4, 5, 6})
	return EncodeSnapshot(&Snapshot{
		CheckpointLSN: 9,
		Dim:           3,
		Metric:        linalg.L2,
		IndexType:     index.HNSW,
		Build:         index.BuildParams{HNSWM: 4, EfConstruction: 16},
		NextID:        2,
		SealSeq:       1,
		Rows:          2,
		Segments:      []SnapSegment{{Seq: 0, IDs: []int64{0, 1}, Store: store}},
		Tombstones:    []int64{5},
	})
}

func FuzzSnapshotDecode(f *testing.F) {
	seed := snapshotSeedCorpus()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // missing footer
	f.Add(seed[:snapHeaderLen])
	f.Add([]byte{})
	f.Add([]byte(snapMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot("", data)
		if err != nil {
			if !isCorrupt(err) {
				t.Fatalf("non-corrupt error from hostile bytes: %v", err)
			}
			return
		}
		// A successful decode must be internally consistent enough for
		// the engine to install without panicking.
		if s.Dim <= 0 {
			t.Fatalf("decoded snapshot with dim %d", s.Dim)
		}
		for i := range s.Segments {
			seg := &s.Segments[i]
			if len(seg.IDs) != seg.Store.Rows() || seg.Store.Dim() != s.Dim {
				t.Fatalf("segment %d inconsistent: %d ids, %d rows, dim %d", i, len(seg.IDs), seg.Store.Rows(), seg.Store.Dim())
			}
			for r := 0; r < seg.Store.Rows(); r++ {
				_ = seg.Store.Row(r)
			}
		}
		if s.Growing != nil {
			if len(s.GrowingIDs) != s.Growing.Rows() || s.Growing.Dim() != s.Dim {
				t.Fatal("growing tail inconsistent")
			}
		}
	})
}
