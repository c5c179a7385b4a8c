package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachTier runs f as one subtest per kernel tier, named after it,
// with dispatchTier set to that tier. A tier this CPU or build lacks is
// skipped with the reason, so the log shows which tiers ran.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for tier := tierPortable; tier <= tierAVX2; tier++ {
		t.Run(tier.String(), func(t *testing.T) {
			if tier > cpuTier {
				t.Skipf("no %v kernels here: the widest tier this build and CPU run is %v", tier, cpuTier)
			}
			defer func(saved kernelTier) { dispatchTier = saved }(dispatchTier)
			dispatchTier = tier
			f(t)
		})
	}
}

// kernelDims are the dims the float-kernel tests sweep: 1–67 crosses the
// 4-way unroll boundary many times, with every tail length; 100 and 101
// are the benchmark's dim without and with a tail.
var kernelDims = func() []int {
	var dims []int
	for d := 1; d <= 67; d++ {
		dims = append(dims, d)
	}
	return append(dims, 100, 101)
}()

// TestKernelTier logs the tier dispatch chose on this machine: one tier
// for every kernel family, the PQ scan's SSE2 body included.
func TestKernelTier(t *testing.T) {
	t.Logf("float, SQ8 and PQ kernels run the %v tier", cpuTier)
}

// randVec fills vectors with a mix of ordinary values and hard cases
// (negative zero, denormals, huge magnitudes) so bit-identity is tested
// where rounding actually varies between non-identical implementations.
func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = float32(math.Copysign(0, -1))
		case 1:
			v[i] = 1e-39 // denormal
		case 2:
			v[i] = 3e18 * float32(rng.NormFloat64())
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

func f32Equal(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// The scalar side of every SIMD≡portable assertion: the portable Go
// kernels on one row. Dot, SquaredL2 and Distance are callers of the
// dispatched kernels (a padded AVX2 group on amd64), so they cannot be
// their own reference.

func refDot(a, b []float32) float32 {
	var out [1]float32
	dotBlockGo(a, b, out[:], opNone)
	return out[0]
}

func refSquaredL2(a, b []float32) float32 {
	var out [1]float32
	l2BlockGo(a, b, out[:])
	return out[0]
}

func refDistance(m Metric, a, b []float32) float32 {
	var out [1]float32
	if l2, op := metricKernel(m); l2 {
		l2BlockGo(a, b, out[:])
	} else {
		dotBlockGo(a, b, out[:], op)
	}
	return out[0]
}

// TestMultiKernelBitIdentity sweeps kernelDims, all three metrics, ragged
// final tiles, and Q ∈ {1,2,7,64} at every tier: the multi-query kernels,
// the per-query blocked kernels, and the scalar reference must agree
// bit-for-bit on every (query, row) pair.
func TestMultiKernelBitIdentity(t *testing.T) {
	forEachTier(t, testMultiKernelBitIdentity)
}

func testMultiKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	metrics := []Metric{L2, InnerProduct, Angular}
	for _, dim := range kernelDims {
		rows := 1 + rng.Intn(41) // ragged vs any tile size
		block := make([]float32, rows*dim)
		copy(block, randVec(rng, rows*dim))
		for _, qn := range []int{1, 2, 7, 64} {
			queries := make([][]float32, qn)
			qm := NewMatrix(dim, qn)
			for i := range queries {
				queries[i] = randVec(rng, dim)
				qm.AppendRow(queries[i])
			}
			for _, m := range metrics {
				// Per-query blocked kernel (itself asserted against the
				// scalar reference below).
				single := make([][]float32, qn)
				for i, q := range queries {
					single[i] = make([]float32, rows)
					DistanceBlock(m, q, block, single[i])
				}
				// Scalar reference.
				for i, q := range queries {
					for r := 0; r < rows; r++ {
						want := refDistance(m, q, block[r*dim:(r+1)*dim])
						if !f32Equal(single[i][r], want) {
							t.Fatalf("dim=%d m=%v q=%d row=%d: DistanceBlock=%x scalar=%x",
								dim, m, i, r, math.Float32bits(single[i][r]), math.Float32bits(want))
						}
					}
				}
				// Scatter multi kernel.
				outs := make([][]float32, qn)
				for i := range outs {
					outs[i] = make([]float32, rows)
				}
				DistanceMultiScatter(m, queries, block, outs)
				for i := range outs {
					for r := 0; r < rows; r++ {
						if !f32Equal(outs[i][r], single[i][r]) {
							t.Fatalf("dim=%d m=%v q=%d row=%d: scatter=%x single=%x",
								dim, m, i, r, math.Float32bits(outs[i][r]), math.Float32bits(single[i][r]))
						}
					}
				}
			}
			// The Matrix query form against the scalar reference.
			flat := make([]float32, qn*rows)
			SquaredL2MultiBlock(qm, block, flat)
			for i, q := range queries {
				for r := 0; r < rows; r++ {
					if want := refSquaredL2(q, block[r*dim:(r+1)*dim]); !f32Equal(flat[i*rows+r], want) {
						t.Fatalf("dim=%d q=%d row=%d: SquaredL2MultiBlock=%x SquaredL2=%x",
							dim, i, r, math.Float32bits(flat[i*rows+r]), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestMultiKernelRaggedTiles forces multiple row tiles, including a ragged
// final tile, through the internal core with tiny tile sizes: tiling must
// never change any (query, row) output.
func TestMultiKernelRaggedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 3, 4, 7, 32, 67} {
		rows := 97 // prime: ragged against every small tile
		block := randVec(rng, rows*dim)[:rows*dim]
		for _, qn := range []int{1, 2, 7, 64} {
			queries := make([][]float32, qn)
			for i := range queries {
				queries[i] = randVec(rng, dim)
			}
			want := make([][]float32, qn)
			for i, q := range queries {
				want[i] = make([]float32, rows)
				DistanceBlock(Angular, q, block, want[i])
			}
			outs := make([][]float32, qn)
			for i := range outs {
				outs[i] = make([]float32, rows)
			}
			DistanceMultiScatter(Angular, queries, block, outs)
			for i := range outs {
				for r := 0; r < rows; r++ {
					if !f32Equal(outs[i][r], want[i][r]) {
						t.Fatalf("dim=%d qn=%d q=%d row=%d: tiled=%x single=%x",
							dim, qn, i, r, math.Float32bits(outs[i][r]), math.Float32bits(want[i][r]))
					}
				}
			}
		}
	}
}

// TestFusedDistanceBlockExact asserts the fusion claim directly: the fused
// InnerProduct/Angular epilogue produces exactly the bits of the two-pass
// form (the plain dot scan, then a separate -x / 1-x sweep).
func TestFusedDistanceBlockExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{1, 5, 32, 67} {
		rows := 53
		block := randVec(rng, rows*dim)[:rows*dim]
		q := randVec(rng, dim)
		dots := make([]float32, rows)
		dotBlockKernel(q, block, dots, opNone)

		fused := make([]float32, rows)
		DistanceBlock(InnerProduct, q, block, fused)
		for i := range fused {
			if want := -dots[i]; !f32Equal(fused[i], want) {
				t.Fatalf("dim=%d row=%d IP: fused=%x two-pass=%x", dim, i,
					math.Float32bits(fused[i]), math.Float32bits(want))
			}
		}
		DistanceBlock(Angular, q, block, fused)
		for i := range fused {
			if want := 1 - dots[i]; !f32Equal(fused[i], want) {
				t.Fatalf("dim=%d row=%d Angular: fused=%x two-pass=%x", dim, i,
					math.Float32bits(fused[i]), math.Float32bits(want))
			}
		}
	}
}

// TestKernelAsmMatchesGo pins the dispatched float kernels, at every
// tier, to the portable ones: both kernel shapes × the three ops × every
// kernelDims dim × 0–13 rows, which covers every split of the rows into
// the AVX2 groups (four rows single-query, two quad) plus a padded final
// group. The output slot past the last row must stay untouched.
func TestKernelAsmMatchesGo(t *testing.T) {
	const canary = 12345
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, dim := range kernelDims {
			q := [4][]float32{randVec(rng, dim), randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)}
			for rows := 0; rows <= 13; rows++ {
				block := randVec(rng, rows*dim)
				// op == -1 selects the l2 kernels; the rest the dot kernels.
				for op := -1; op <= opOneMinus; op++ {
					// got and want end in a canary slot; g and w are the
					// rows-long outputs the kernels see.
					var got, want, g, w [4][]float32
					for i := range got {
						got[i] = append(make([]float32, rows), canary)
						want[i] = append(make([]float32, rows), canary)
						g[i], w[i] = got[i][:rows], want[i][:rows]
					}
					if op < 0 {
						l2BlockKernel(q[0], block, g[0])
						l2BlockGo(q[0], block, w[0])
					} else {
						dotBlockKernel(q[0], block, g[0], op)
						dotBlockGo(q[0], block, w[0], op)
					}
					same(t, "block", dim, rows, op, got[0], want[0])
					if op < 0 {
						l2Multi4Kernel(q[0], q[1], q[2], q[3], block, g[0], g[1], g[2], g[3])
						l2Multi4Go(q[0], q[1], q[2], q[3], block, w[0], w[1], w[2], w[3])
					} else {
						dotMulti4Kernel(q[0], q[1], q[2], q[3], block, g[0], g[1], g[2], g[3], op)
						dotMulti4Go(q[0], q[1], q[2], q[3], block, w[0], w[1], w[2], w[3], op)
					}
					for i := range got {
						same(t, fmt.Sprintf("multi4 q%d", i), dim, rows, op, got[i], want[i])
					}
				}
			}
		}
	})
}

// same fails the test at the first output of got whose bits differ from
// want's.
func same(t *testing.T, kernel string, dim, rows, op int, got, want []float32) {
	t.Helper()
	for i := range got {
		if !f32Equal(got[i], want[i]) {
			t.Fatalf("%s dim=%d rows=%d op=%d [%d]: kernel=%x go=%x", kernel, dim, rows, op, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestDistanceRowsBitIdentity pins the gather form — the gathered kernels,
// and with them Dot, SquaredL2 and Distance, its one-pair cases — to the
// portable reference at every tier: 0–13 rows, which covers every split
// into whole groups of four and a padded remainder, × every kernelDims dim
// × the three metrics, with a canary slot past the output. Each row list
// is drawn three ways: at random, one row repeated (four times and more,
// so a group's four addresses coincide), and a run of adjacent rows.
func TestDistanceRowsBitIdentity(t *testing.T) {
	forEachTier(t, testDistanceRowsBitIdentity)
}

func testDistanceRowsBitIdentity(t *testing.T) {
	const canary = 12345
	rng := rand.New(rand.NewSource(13))
	for _, dim := range kernelDims {
		store := NewMatrix(dim, 23)
		for i := 0; i < 23; i++ {
			store.AppendRow(randVec(rng, dim))
		}
		q := randVec(rng, dim)
		for n := 0; n <= 13; n++ {
			for _, pick := range []string{"random", "repeated", "adjacent"} {
				rows := make([]int32, n)
				first := rng.Intn(store.Rows())
				for i := range rows {
					switch pick {
					case "random":
						rows[i] = int32(rng.Intn(store.Rows()))
					case "repeated":
						rows[i] = int32(first)
					case "adjacent":
						rows[i] = int32((first + i) % store.Rows())
					}
				}
				for _, m := range []Metric{L2, InnerProduct, Angular} {
					out := append(make([]float32, n), canary)
					DistanceRows(m, q, store, rows, out[:n])
					for i, r := range rows {
						want := refDistance(m, q, store.Row(int(r)))
						if !f32Equal(out[i], want) {
							t.Fatalf("dim=%d m=%v %s n=%d i=%d: DistanceRows=%x ref=%x",
								dim, m, pick, n, i, math.Float32bits(out[i]), math.Float32bits(want))
						}
						if got := Distance(m, q, store.Row(int(r))); !f32Equal(got, want) {
							t.Fatalf("dim=%d m=%v row=%d: Distance=%x ref=%x",
								dim, m, r, math.Float32bits(got), math.Float32bits(want))
						}
					}
					if out[n] != canary {
						t.Fatalf("dim=%d m=%v %s n=%d: wrote past the output", dim, m, pick, n)
					}
				}
			}
		}
		for r := 0; r < store.Rows(); r++ {
			if got, want := Dot(q, store.Row(r)), refDot(q, store.Row(r)); !f32Equal(got, want) {
				t.Fatalf("dim=%d row=%d: Dot=%x ref=%x", dim, r, math.Float32bits(got), math.Float32bits(want))
			}
			if got, want := SquaredL2(q, store.Row(r)), refSquaredL2(q, store.Row(r)); !f32Equal(got, want) {
				t.Fatalf("dim=%d row=%d: SquaredL2=%x ref=%x", dim, r, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}
