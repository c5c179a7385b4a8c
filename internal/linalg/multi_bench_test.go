package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernelMultiQuery measures the multi-query scan kernel at every
// float tier this build and CPU run, on three arenas: one IVF cell (58 ×
// 100-d rows, the mean cell of the `scan` workload's segments, L1-resident),
// an in-cache arena (dim 32, fits L2) and an out-of-cache one (dim 32,
// streams from memory). Q = 1, 2, 3 run the single-query kernel alone —
// the path most of a tiled IVF scan's (query, row) pairs take, since most
// cells have fewer than four probers — and Q = 8, 64 the quad kernel. ns/op
// spans one full Q×rows distance matrix; ns/pair divides it by Q×rows.
func BenchmarkKernelMultiQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range []struct {
		name      string
		dim, rows int
	}{
		{"cell", 100, 58},
		{"incache", 32, 2048},      // 256KB arena: L2-resident
		{"outofcache", 32, 262144}, // 32MB arena: streams from memory
	} {
		block := make([]float32, sz.rows*sz.dim)
		for i := range block {
			block[i] = rng.Float32()
		}
		for _, qn := range []int{1, 2, 3, 8, 64} {
			queries := make([][]float32, qn)
			outs := make([][]float32, qn)
			for i := range queries {
				queries[i] = make([]float32, sz.dim)
				for j := range queries[i] {
					queries[i][j] = rng.Float32()
				}
				outs[i] = make([]float32, sz.rows)
			}
			for tier := tierPortable; tier <= cpuTier; tier++ {
				b.Run(fmt.Sprintf("%s/Q=%d/%v", sz.name, qn, tier), func(b *testing.B) {
					defer func(saved kernelTier) { dispatchTier = saved }(dispatchTier)
					dispatchTier = tier
					b.SetBytes(int64(sz.rows) * int64(sz.dim) * 4)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						DistanceMultiScatter(L2, queries, block, outs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*qn*sz.rows), "ns/pair")
				})
			}
		}
	}
}
