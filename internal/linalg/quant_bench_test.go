package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernelQuantized measures the byte-domain scan kernels. SQ8 is
// the decode kernel family (one byte per dimension) at every tier this
// build and CPU run, on three code arenas: one IVF_SQ8 cell (115 × 100-d
// rows, the mean cell `mixed` scans: 249 424 126 rows over 2 169 063 cell
// scans in a run on seed 41, L1-resident), an in-cache arena (dim 32, fits
// L2) and an out-of-cache one (dim 32, streams from memory); Q = 1 and 2
// run the single-query kernel alone, Q = 8 and 64 the quad kernel. PQ is
// the ADC accumulation (m=8 subspaces, ksub=256, one byte per subspace) at
// Q=1/8/64. ns/op spans one full Q×rows distance matrix; the per-pair
// rate (SQ8: ns/pair) is what improves as each decoded (SQ8) or loaded
// (PQ) code row is shared across the query tile.
func BenchmarkKernelQuantized(b *testing.B) {
	rng := rand.New(rand.NewSource(1))

	b.Run("SQ8", func(b *testing.B) {
		for _, sz := range []struct {
			name      string
			dim, rows int
		}{
			{"cell", 100, 115},
			{"incache", 32, 8192},      // 256KB codes: L2-resident
			{"outofcache", 32, 262144}, // 8MB codes: streams from memory
		} {
			min := make([]float32, sz.dim)
			scale := make([]float32, sz.dim)
			for j := range min {
				min[j] = rng.Float32() - 0.5
				scale[j] = rng.Float32() / 255
			}
			codes := make([]byte, sz.rows*sz.dim)
			rng.Read(codes)
			for _, qn := range []int{1, 2, 8, 64} {
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
						b.SetBytes(int64(sz.rows) * int64(sz.dim))
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							// Queries stand in for precomputed residuals.
							DistanceSQ8MultiScatter(L2, queries, min, scale, codes, outs)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*qn*sz.rows), "ns/pair")
					})
				}
			}
		}
	})

	b.Run("PQ", func(b *testing.B) {
		const m, ksub = 8, 256
		for _, sz := range []struct {
			name string
			rows int
		}{
			{"incache", 32768},      // 256KB codes: L2-resident
			{"outofcache", 1 << 20}, // 8MB codes: streams from memory
		} {
			codes := make([]byte, sz.rows*m)
			rng.Read(codes)
			for _, qn := range []int{1, 8, 64} {
				tables := make([][]float32, qn)
				outs := make([][]float32, qn)
				for i := range tables {
					tables[i] = make([]float32, m*ksub)
					for j := range tables[i] {
						tables[i][j] = rng.Float32()
					}
					outs[i] = make([]float32, sz.rows)
				}
				b.Run(fmt.Sprintf("%s/Q=%d", sz.name, qn), func(b *testing.B) {
					b.SetBytes(int64(sz.rows) * m)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						PQScan8Multi(tables, codes, m, ksub, outs)
					}
				})
			}
		}
	})
}
