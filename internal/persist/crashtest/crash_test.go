package crashtest

import (
	"testing"

	"vdtuner/internal/persist"
)

// TestCrashMatrix is the acceptance gate for durable persistence: for a
// seeded random workload, every truncation of the collection's one
// write-ahead log — record-aligned and torn mid-record — must recover to
// exactly the state an in-memory reference engine reaches by replaying
// the surviving operation prefix: equal live row counts and bit-identical
// SearchBatch results. It is a property test: each seed is an independent
// workload with its own seal/compaction/checkpoint history, on one shard
// and on three, whose records interleave in the one log, so a cut can
// keep one shard's part of an acknowledged-late insert and lose
// another's.
func TestCrashMatrix(t *testing.T) {
	type variant struct {
		name     string
		seed     int64
		autoCkpt bool
		shards   int
	}
	variants := []variant{
		// Auto-checkpointing runs: the frontier is the churn since the
		// last checkpoint; snapshots and multi-file logs in play.
		{"seed1-ckpt", 1, true, 1},
		{"seed2-ckpt", 2, true, 1},
		// No auto-checkpoint: the entire history — seals and compaction
		// commits included — is in one log file, every record a matrix
		// row.
		{"seed1-log", 1, false, 1},
		{"seed2-log", 2, false, 1},
		// Three shards' records interleaved in the one log.
		{"seed1-ckpt-S3", 1, true, 3},
		{"seed2-log-S3", 2, false, 3},
	}
	numOps := 110
	if testing.Short() {
		variants = []variant{variants[0], variants[5]}
		numOps = 60
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			w := runWorkload(t, t.TempDir(), v.seed, numOps, v.autoCkpt, v.shards)
			last, cases := matrixCases(t, w)
			// With auto-checkpointing the frontier is only the churn since
			// the last checkpoint — small by design; without it, the whole
			// history is at the frontier.
			floor := numOps / 4
			if v.autoCkpt {
				floor = 10
			}
			if len(cases) < floor {
				t.Fatalf("matrix degenerated to %d truncation points", len(cases))
			}
			t.Logf("%s: %d ops, %d live rows, %d truncation points", v.name, len(w.ops), w.rows, len(cases))
			scratch := t.TempDir()
			for _, tc := range cases {
				verifyCase(t, w, last, tc, scratch)
			}
		})
	}
}

// TestCrashMatrixCoversCompactionCommits pins that the no-checkpoint
// variant really puts compaction-commit records at the crash frontier —
// without this, the matrix would silently stop exercising commit replay.
func TestCrashMatrixCoversCompactionCommits(t *testing.T) {
	w := runWorkload(t, t.TempDir(), 2, 110, false, 3)
	files, err := persist.WALFileNames(logDir(t, w.dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := persist.ScanWALFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	counts := map[persist.RecordType]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	if counts[persist.RecFlush] == 0 || counts[persist.RecCompactCommit] == 0 {
		t.Fatalf("truncation frontier lacks lifecycle records: %v", counts)
	}
}

// TestCrashMatrixAcknowledgedOpsSurvive pins the SyncAlways contract
// directly: with the untruncated (but crashed, never closed) directory,
// every acknowledged operation is recovered — the "full" cell of the
// matrix must account for the entire workload.
func TestCrashMatrixAcknowledgedOpsSurvive(t *testing.T) {
	w := runWorkload(t, t.TempDir(), 3, 80, true, 3)
	last, cases := matrixCases(t, w)
	full := cases[len(cases)-1]
	if full.full != len(w.ops) || len(full.tail) != 0 {
		t.Fatalf("untruncated log accounts for %d of %d acknowledged ops", full.full, len(w.ops))
	}
	verifyCase(t, w, last, full, t.TempDir())
}
