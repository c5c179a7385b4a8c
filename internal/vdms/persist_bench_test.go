package vdms

import (
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// BenchmarkRecovery measures OpenDurable on a crashed data directory: a
// seeded churn workload (inserts, deletes, seals, compaction) is run
// once, and each iteration recovers the full state — snapshot load, WAL
// suffix replay, deterministic index rebuilds.
func BenchmarkRecovery(b *testing.B) {
	const dim, n = 16, 2000
	cfg := DefaultConfig()
	cfg.IndexType = index.HNSW
	cfg.Parallelism = 4
	cfg.WALFsyncPolicy = 3
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.8
	dir := b.TempDir()
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		b.Fatal(err)
	}
	vecs := randVecs(n, dim, 7)
	ids, err := c.Insert(vecs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Delete(ids[:n/5]); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	c.Crash()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.Crash()
		b.StartTimer()
	}
}
