package linalg

import (
	"math"
	"math/rand"
	"testing"
)

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
// dispatched kernels (SSE on amd64), so they cannot be their own
// reference.

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

// TestMultiKernelBitIdentity sweeps dims 1..67 (crossing the 4-way unroll
// boundary many times), all three metrics, ragged final tiles, and
// Q ∈ {1,2,7,64}: the multi-query kernels, the per-query blocked kernels,
// and the scalar reference must agree bit-for-bit on every (query, row)
// pair.
func TestMultiKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	metrics := []Metric{L2, InnerProduct, Angular}
	for dim := 1; dim <= 67; dim++ {
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

// TestFusedDistanceBlockExact asserts the satellite-1 fusion claim
// directly: the fused InnerProduct/Angular epilogue produces exactly the
// bits of the two-pass form (DotBlock then a separate -x / 1-x sweep).
func TestFusedDistanceBlockExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{1, 5, 32, 67} {
		rows := 53
		block := randVec(rng, rows*dim)[:rows*dim]
		q := randVec(rng, dim)
		dots := make([]float32, rows)
		DotBlock(q, block, dots)

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

// TestKernelAsmMatchesGo pins the arch-specific kernels to the portable
// ones (on non-amd64 builds the two are the same function and the test is
// trivially green).
func TestKernelAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 67; dim++ {
		rows := 1 + rng.Intn(9)
		block := randVec(rng, rows*dim)[:rows*dim]
		q0, q1, q2, q3 := randVec(rng, dim), randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)
		for op := opNone; op <= opOneMinus; op++ {
			got := make([]float32, rows)
			want := make([]float32, rows)
			dotBlockKernel(q0, block, got, op)
			dotBlockGo(q0, block, want, op)
			for i := range got {
				if !f32Equal(got[i], want[i]) {
					t.Fatalf("dotBlock dim=%d op=%d row=%d: kernel=%x go=%x", dim, op, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			g := [4][]float32{make([]float32, rows), make([]float32, rows), make([]float32, rows), make([]float32, rows)}
			w := [4][]float32{make([]float32, rows), make([]float32, rows), make([]float32, rows), make([]float32, rows)}
			dotMulti4Kernel(q0, q1, q2, q3, block, g[0], g[1], g[2], g[3], op)
			dotMulti4Go(q0, q1, q2, q3, block, w[0], w[1], w[2], w[3], op)
			for qi := 0; qi < 4; qi++ {
				for i := range g[qi] {
					if !f32Equal(g[qi][i], w[qi][i]) {
						t.Fatalf("dotMulti4 dim=%d op=%d q=%d row=%d: kernel=%x go=%x", dim, op, qi, i,
							math.Float32bits(g[qi][i]), math.Float32bits(w[qi][i]))
					}
				}
			}
		}
		got := make([]float32, rows)
		want := make([]float32, rows)
		l2BlockKernel(q0, block, got)
		l2BlockGo(q0, block, want)
		for i := range got {
			if !f32Equal(got[i], want[i]) {
				t.Fatalf("l2Block dim=%d row=%d: kernel=%x go=%x", dim, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		g := [4][]float32{make([]float32, rows), make([]float32, rows), make([]float32, rows), make([]float32, rows)}
		w := [4][]float32{make([]float32, rows), make([]float32, rows), make([]float32, rows), make([]float32, rows)}
		l2Multi4Kernel(q0, q1, q2, q3, block, g[0], g[1], g[2], g[3])
		l2Multi4Go(q0, q1, q2, q3, block, w[0], w[1], w[2], w[3])
		for qi := 0; qi < 4; qi++ {
			for i := range g[qi] {
				if !f32Equal(g[qi][i], w[qi][i]) {
					t.Fatalf("l2Multi4 dim=%d q=%d row=%d: kernel=%x go=%x", dim, qi, i,
						math.Float32bits(g[qi][i]), math.Float32bits(w[qi][i]))
				}
			}
		}
	}
}

// TestDistanceRowsBitIdentity pins the gather form — and with it Dot,
// SquaredL2 and Distance, its one-pair cases — to the portable reference:
// 0–9 scattered rows cover empty input, every quad/remainder split, and
// repeated rows; the dims cover tail-only, quad-only and quad+tail loops.
func TestDistanceRowsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{1, 3, 4, 100, 101} {
		store := NewMatrix(dim, 23)
		for i := 0; i < 23; i++ {
			store.AppendRow(randVec(rng, dim))
		}
		q := randVec(rng, dim)
		for _, m := range []Metric{L2, InnerProduct, Angular} {
			for n := 0; n <= 9; n++ {
				rows := make([]int32, n)
				for i := range rows {
					rows[i] = int32(rng.Intn(store.Rows()))
				}
				out := make([]float32, n+1)
				out[n] = 12345 // canary: nothing is written past n
				DistanceRows(m, q, store, rows, out[:n])
				for i, r := range rows {
					want := refDistance(m, q, store.Row(int(r)))
					if !f32Equal(out[i], want) {
						t.Fatalf("dim=%d m=%v n=%d i=%d: DistanceRows=%x ref=%x",
							dim, m, n, i, math.Float32bits(out[i]), math.Float32bits(want))
					}
					if got := Distance(m, q, store.Row(int(r))); !f32Equal(got, want) {
						t.Fatalf("dim=%d m=%v row=%d: Distance=%x ref=%x",
							dim, m, r, math.Float32bits(got), math.Float32bits(want))
					}
				}
				if out[n] != 12345 {
					t.Fatalf("dim=%d m=%v n=%d: wrote past the output", dim, m, n)
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
