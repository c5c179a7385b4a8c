// Package crashtest is the crash-matrix harness for the engine's durable
// persistence: it drives a seeded random workload against a durable
// collection under the strictest fsync policy, "crashes" it, then replays
// recovery from every prefix of the write-ahead log — truncating at every
// record boundary and at torn mid-record offsets — and checks each
// recovered engine against an in-memory reference that applied exactly
// the operations the surviving log acknowledges.
//
// The workloads use the FLAT index, whose search results depend only on
// the live id→vector set (segment scans are exact and per-row arithmetic
// is layout-independent), so the reference engine need not reproduce the
// recovered engine's segment layout or compaction history — only its
// logical contents — for SearchBatch results to be bit-identical.
package crashtest

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
	"vdtuner/internal/vdms"
)

// op is one logical workload operation, replayable onto any collection.
type op struct {
	insert [][]float32 // nil for deletes
	ids    []int64     // an insert's assigned ids, or a delete's targets
}

// logDir is the directory of a crashed workload's one log.
func logDir(t *testing.T, dir string) string {
	t.Helper()
	man, err := persist.LoadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest of %s: %+v, %v", dir, man, err)
	}
	return man.LogDir(dir)
}

// workload is a finished seeded run: the op sequence and the crashed data
// directory it produced. lsnAfter[i] is the WAL head (Stats.WALLastLSN)
// right after op i was acknowledged: op i is fully durable in any log
// prefix reaching that LSN. One Insert call can span several WAL records
// (a record per shard it touches, and per seal boundary), so the mapping
// from truncation points to surviving state is by LSN, not by record
// count.
type workload struct {
	cfg      vdms.Config
	dim      int
	ops      []op
	lsnAfter []uint64
	dir      string
	qs       [][]float32
	rows     int
}

// matrixConfig is the crash-matrix engine configuration: FLAT segments
// (layout-independent exact search), always-fsync (every acknowledged op
// is on disk), and small segments so the workload seals and compacts.
func matrixConfig() vdms.Config {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.Flat
	cfg.Parallelism = 2
	cfg.WALFsyncPolicy = 3 // always
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.8
	return cfg
}

// runWorkload drives numOps seeded operations against a durable
// collection of the given shard count in dir and crashes it. With
// autoCkpt false the compactor never checkpoints, so every record —
// compaction commits included — stays in the WAL and lands in the
// truncation matrix.
func runWorkload(t *testing.T, dir string, seed int64, numOps int, autoCkpt bool, shards int) *workload {
	t.Helper()
	const dim = 8
	cfg := matrixConfig()
	cfg.ShardCount = shards
	rng := rand.New(rand.NewSource(seed))
	c, err := vdms.OpenDurable(dir, cfg, linalg.L2, dim, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !autoCkpt {
		c.DisableAutoCheckpoint()
	}
	w := &workload{cfg: cfg, dim: dim, dir: dir}
	var live []int64
	for i := 0; i < numOps; i++ {
		if len(live) == 0 || rng.Float64() < 0.7 {
			n := 1 + rng.Intn(5)
			vecs := make([][]float32, n)
			for j := range vecs {
				v := make([]float32, dim)
				for d := range v {
					v[d] = float32(rng.NormFloat64())
				}
				vecs[j] = v
			}
			ids, err := c.Insert(vecs)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ids...)
			w.ops = append(w.ops, op{insert: vecs, ids: ids})
			w.lsnAfter = append(w.lsnAfter, c.Stats().WALLastLSN)
		} else {
			n := 1 + rng.Intn(4)
			ids := make([]int64, n)
			for j := range ids {
				switch rng.Intn(10) {
				case 0:
					ids[j] = int64(rng.Intn(100000)) + 50000 // likely nonexistent
				default:
					ids[j] = live[rng.Intn(len(live))] // may repeat / already dead
				}
			}
			if _, err := c.Delete(ids); err != nil {
				t.Fatal(err)
			}
			w.ops = append(w.ops, op{ids: ids})
			w.lsnAfter = append(w.lsnAfter, c.Stats().WALLastLSN)
		}
	}
	// Churn finale: mass-delete the oldest third and compact to
	// quiescence, guaranteeing committed compaction tasks (and, without
	// auto-checkpointing, their WAL records) in every workload; the
	// trailing inserts keep those commits off the very tail of the log so
	// truncation points land both before and after them.
	if n := len(live) / 3; n > 0 {
		ids := append([]int64(nil), live[:n]...)
		if _, err := c.Delete(ids); err != nil {
			t.Fatal(err)
		}
		w.ops = append(w.ops, op{ids: ids})
		w.lsnAfter = append(w.lsnAfter, c.Stats().WALLastLSN)
	}
	// Flush first: Compact plans over *landed* segments, and the mass
	// delete's tombstones only reach per-segment dead counts once the
	// in-flight builds land — without the barrier, Compact can race to an
	// empty plan and the workload would (non-deterministically) carry no
	// commit records.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		ids, err := c.Insert([][]float32{v})
		if err != nil {
			t.Fatal(err)
		}
		w.ops = append(w.ops, op{insert: [][]float32{v}, ids: ids})
		w.lsnAfter = append(w.lsnAfter, c.Stats().WALLastLSN)
	}
	w.rows = int(c.Stats().Rows)
	c.Crash()
	for i := 0; i < 16; i++ {
		q := make([]float32, dim)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		w.qs = append(w.qs, q)
	}
	return w
}

// reference replays tc's surviving operations — the fully durable op
// prefix, then what survives of the next op — onto a fresh in-memory
// collection and quiesces it.
func (w *workload) reference(t *testing.T, tc truncationCase) *vdms.Collection {
	t.Helper()
	ref, err := vdms.NewCollection(w.cfg, linalg.L2, w.dim, 256)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(o op) {
		var err error
		if o.insert != nil {
			_, err = ref.Insert(o.insert)
		} else {
			_, err = ref.Delete(o.ids)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range w.ops[:tc.full] {
		apply(o)
	}
	if len(tc.tail) > 0 {
		// A partly surviving insert is the whole insert (the reference
		// assigns the same ids) less the rows whose records were cut; a
		// partly surviving delete is the ids whose records survive.
		o := w.ops[tc.full]
		if o.insert != nil {
			apply(o)
			kept := map[int64]bool{}
			for _, id := range tc.tail {
				kept[id] = true
			}
			lost := op{}
			for _, id := range o.ids {
				if !kept[id] {
					lost.ids = append(lost.ids, id)
				}
			}
			apply(lost)
		} else {
			apply(op{ids: tc.tail})
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// truncationCase is one cell of the crash matrix.
type truncationCase struct {
	name string
	// cut is the byte length the final WAL file is truncated to.
	cut int64
	// full is how many logical ops survive the cut in their entirety.
	full int
	// tail holds the ids of the insert or delete records past the last
	// fully surviving op that the cut still retains — what survives of op
	// full, whose records (one per shard it touched, and per seal
	// boundary) the cut split.
	tail []int64
}

// matrixCases enumerates the truncation matrix over the crashed
// directory's final WAL file: every record boundary plus torn offsets
// inside every record. Records in earlier (checkpoint-sealed) WAL files
// or absorbed into snapshots always survive; only the final file is at
// the crash frontier, which is exactly the set of states a real torn
// write can produce. Each case's surviving state is derived by LSN: a cut
// keeping records up to LSN L preserves every op acknowledged at or below
// L, plus the ids of later surviving records.
func matrixCases(t *testing.T, w *workload) (last string, cases []truncationCase) {
	t.Helper()
	files, err := persist.WALFileNames(logDir(t, w.dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("crashed directory has no WAL files")
	}
	last = files[len(files)-1]
	recs, err := persist.ScanWALFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("final WAL file holds no records; matrix would be empty")
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Decode the final file's insert and delete ids, aligned with recs.
	recIDs := make([][]int64, len(recs))
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	if _, _, err := persist.ReplayBuffer(last, data, 0, func(o *persist.WALOp) error {
		switch o.Type {
		case persist.RecInsert:
			for i := 0; i < o.Count; i++ {
				recIDs[idx] = append(recIDs[idx], o.FirstID+int64(i))
			}
		case persist.RecInsertIDs, persist.RecDelete:
			recIDs[idx] = o.IDs
		}
		idx++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if idx != len(recs) {
		t.Fatalf("scan found %d records, replay %d", len(recs), idx)
	}
	baseLSN := recs[0].LSN - 1 // durable regardless of the cut

	// stateAt computes the surviving state for a cut: the fully durable
	// op prefix and the surviving record ids beyond it.
	stateAt := func(cut int64) (full int, tail []int64) {
		lastLSN := baseLSN
		for _, r := range recs {
			if r.End <= cut && r.LSN > lastLSN {
				lastLSN = r.LSN
			}
		}
		for full < len(w.ops) && w.lsnAfter[full] <= lastLSN {
			full++
		}
		var boundary uint64
		if full > 0 {
			boundary = w.lsnAfter[full-1]
		}
		for i, r := range recs {
			if r.End <= cut && r.LSN > boundary {
				tail = append(tail, recIDs[i]...)
			}
		}
		return full, tail
	}

	add := func(kind string, i int, cut int64) {
		full, tail := stateAt(cut)
		cases = append(cases, truncationCase{
			name: fmt.Sprintf("%s-rec%d-cut%d", kind, i, cut),
			cut:  cut,
			full: full,
			tail: tail,
		})
	}
	// The file header itself can be torn (a rotation right before the
	// crash): the file then contributes nothing.
	add("empty-file", 0, 0)
	if recs[0].Offset > 1 {
		add("torn-file-header", 0, recs[0].Offset/2)
	}
	for i, r := range recs {
		// Record-aligned: everything before record i survives.
		add("boundary", i, r.Offset)
		// Torn: cuts inside record i lose it and everything after.
		if r.End-r.Offset > 2 {
			add("torn-header", i, r.Offset+1)
			add("torn-mid", i, (r.Offset+r.End)/2)
			add("torn-tail", i, r.End-1)
		}
	}
	// The untouched file: nothing lost.
	full, tail := stateAt(fi.Size())
	if full != len(w.ops) || len(tail) != 0 {
		t.Fatalf("untruncated log accounts for %d of %d acknowledged ops (+%d partial)", full, len(w.ops), len(tail))
	}
	cases = append(cases, truncationCase{name: "full", cut: fi.Size(), full: full})
	return last, cases
}

// copyDirTruncated clones the crashed data directory — manifest, log and
// every shard subdirectory — into dst with the file truncate (a path
// under src) truncated to cut bytes.
func copyDirTruncated(t *testing.T, src, dst, truncate string, cut int64) {
	t.Helper()
	var walk func(from, to string)
	walk = func(from, to string) {
		ents, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				sub := filepath.Join(to, e.Name())
				if err := os.MkdirAll(sub, 0o777); err != nil {
					t.Fatal(err)
				}
				walk(filepath.Join(from, e.Name()), sub)
				continue
			}
			inPath := filepath.Join(from, e.Name())
			in, err := os.Open(inPath)
			if err != nil {
				t.Fatal(err)
			}
			out, err := os.Create(filepath.Join(to, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var cerr error
			if inPath == truncate {
				_, cerr = io.CopyN(out, in, cut)
				if cerr == io.EOF {
					cerr = nil
				}
			} else {
				_, cerr = io.Copy(out, in)
			}
			in.Close()
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			if cerr != nil {
				t.Fatal(cerr)
			}
		}
	}
	walk(src, dst)
}

// verifyCase recovers from one truncation of the log file last and checks
// the recovered engine against the reference replay of the surviving op
// prefix.
func verifyCase(t *testing.T, w *workload, last string, tc truncationCase, scratch string) {
	t.Helper()
	dir := filepath.Join(scratch, tc.name)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copyDirTruncated(t, w.dir, dir, last, tc.cut)

	rec, err := vdms.OpenDurable(dir, w.cfg, linalg.L2, w.dim, 256)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", tc.name, err)
	}
	defer rec.Crash()
	if err := rec.Flush(); err != nil {
		t.Fatalf("%s: quiescing recovered engine: %v", tc.name, err)
	}
	ref := w.reference(t, tc)
	defer ref.Close()

	recStats, refStats := rec.Stats(), ref.Stats()
	if recStats.Rows != refStats.Rows {
		t.Fatalf("%s: recovered Rows = %d, reference has %d", tc.name, recStats.Rows, refStats.Rows)
	}
	k := 10
	recRes, err := rec.SearchBatch(w.qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.SearchBatch(w.qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recRes, refRes) {
		for i := range recRes {
			if !reflect.DeepEqual(recRes[i], refRes[i]) {
				t.Fatalf("%s: query %d differs:\nrecovered %v\nreference %v", tc.name, i, recRes[i], refRes[i])
			}
		}
		t.Fatalf("%s: SearchBatch differs from reference", tc.name)
	}
}
