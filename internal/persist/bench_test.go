package persist

import (
	"math/rand"
	"testing"
)

// BenchmarkWALAppend measures the insert path's logging cost: one
// 32-vector batch record appended and group-committed per iteration
// under the batch policy (the engine default). Steady-state appends
// reuse the writer's scratch buffer, so per-op allocations stay flat
// regardless of record size.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncBatch, GroupCommit: 64}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(1))
	const dim, batch = 128, 32
	vecs := make([][]float32, batch)
	for i := range vecs {
		vecs[i] = make([]float32, dim)
		for d := range vecs[i] {
			vecs[i][d] = rng.Float32()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var id int64
	for i := 0; i < b.N; i++ {
		lsn, err := w.AppendInsert(id, vecs, dim)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			b.Fatal(err)
		}
		id += batch
	}
}
