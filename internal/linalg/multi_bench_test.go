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

// BenchmarkKernelGather measures the gathered kernels at every float tier:
// 32 rows picked at random from an in-cache 3 000 × 100-d store (1.2 MB,
// the size of the `point` workload's HNSW segment), scored by DistanceRows
// — one gathered-kernel call per four rows, as an HNSW expansion scores a
// node's unvisited neighbours — and, as the bound it is measured against,
// the same 32 rows copied contiguous and scored by DistanceBlock (BLOCK4 at
// the AVX2 tier). ns/row divides one call by its 32 rows. The short
// groups follow, in ns/call: a DistanceBlock of 1, 2 and 3 rows (at the
// AVX2 tier one padded gathered group; rows=1 is a one-pair Distance) and
// a quad scan of four queries against one row (one pair on itself).
func BenchmarkKernelGather(b *testing.B) {
	const rows, dim, n = 3000, 100, 32
	rng := rand.New(rand.NewSource(1))
	store := NewMatrix(dim, rows)
	row := make([]float32, dim)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = rng.Float32()
		}
		store.AppendRow(row)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()
	}
	picked := make([]int32, n)
	tile := make([]float32, 0, n*dim)
	for i := range picked {
		picked[i] = int32(rng.Intn(rows))
		tile = append(tile, store.Row(int(picked[i]))...)
	}
	out := make([]float32, n)
	for tier := tierPortable; tier <= cpuTier; tier++ {
		for _, layout := range []string{"gathered", "contiguous"} {
			b.Run(fmt.Sprintf("%s/%v", layout, tier), func(b *testing.B) {
				defer func(saved kernelTier) { dispatchTier = saved }(dispatchTier)
				dispatchTier = tier
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if layout == "gathered" {
						DistanceRows(L2, q, store, picked, out)
					} else {
						DistanceBlock(L2, q, tile, out)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
		for _, short := range []int{1, 2, 3, 0} {
			name := fmt.Sprintf("short/rows=%d/%v", short, tier)
			if short == 0 {
				name = fmt.Sprintf("short/quad-odd-row/%v", tier)
			}
			b.Run(name, func(b *testing.B) {
				defer func(saved kernelTier) { dispatchTier = saved }(dispatchTier)
				dispatchTier = tier
				quad := [][]float32{q, store.Row(1), store.Row(2), store.Row(3)}
				outs := [][]float32{out[0:1], out[1:2], out[2:3], out[3:4]}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if short == 0 {
						DistanceMultiScatter(L2, quad, tile[:dim], outs)
					} else {
						DistanceBlock(L2, q, tile[:short*dim], out[:short])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
			})
		}
	}
}
