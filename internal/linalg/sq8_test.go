package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randCodes fills a byte arena with the full u8 range plus the edge
// values 0 and 255 over-represented.
func randCodes(rng *rand.Rand, n int) []byte {
	c := make([]byte, n)
	for i := range c {
		switch rng.Intn(8) {
		case 0:
			c[i] = 0
		case 1:
			c[i] = 255
		default:
			c[i] = byte(rng.Intn(256))
		}
	}
	return c
}

// randAffine produces per-dim min/scale like a trained SQ8 codec:
// non-negative scales, occasional zero (constant dim), occasional huge or
// denormal values so rounding differences would show.
func randAffine(rng *rand.Rand, dim int) (min, scale []float32) {
	min = randVec(rng, dim)
	scale = make([]float32, dim)
	for i := range scale {
		switch rng.Intn(8) {
		case 0:
			scale[i] = 0
		case 1:
			scale[i] = 1e-39
		case 2:
			scale[i] = 3e18 * float32(math.Abs(rng.NormFloat64()))
		default:
			scale[i] = float32(math.Abs(rng.NormFloat64()))
		}
	}
	return min, scale
}

// sq8Block scores one query against every dim-byte row of codes with the
// dispatched blocked kernel of metric m. Under L2, q is the residual
// q - min (see SQ8Residual); under the dot metrics it is the raw query.
func sq8Block(m Metric, q, min, scale []float32, codes []byte, out []float32) {
	if l2, op := metricKernel(m); l2 {
		sq8L2BlockKernel(q, scale, codes, out)
	} else {
		sq8DotBlockKernel(q, min, scale, codes, out, op)
	}
}

// TestSQ8KernelBitIdentity sweeps dims 1..67 (crossing the 4-way unroll
// and in-register decode boundary many times), all three metrics, ragged
// row counts, and Q ∈ {1,2,7,64} at every tier: the multi-query scatter,
// the blocked kernel, and the scalar contract reference SQ8Distance must
// agree bit-for-bit on every (query, row) pair.
func TestSQ8KernelBitIdentity(t *testing.T) {
	forEachTier(t, testSQ8KernelBitIdentity)
}

func testSQ8KernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	metrics := []Metric{L2, InnerProduct, Angular}
	for dim := 1; dim <= 67; dim++ {
		rows := 1 + rng.Intn(41)
		codes := randCodes(rng, rows*dim)
		min, scale := randAffine(rng, dim)
		for _, qn := range []int{1, 2, 7, 64} {
			queries := make([][]float32, qn)
			resids := make([][]float32, qn)
			for i := range queries {
				queries[i] = randVec(rng, dim)
				resids[i] = make([]float32, dim)
				SQ8Residual(queries[i], min, resids[i])
			}
			for _, m := range metrics {
				qarg := queries
				if m == L2 {
					qarg = resids
				}
				// Blocked kernel vs the scalar contract reference.
				single := make([][]float32, qn)
				for i := range queries {
					single[i] = make([]float32, rows)
					sq8Block(m, qarg[i], min, scale, codes, single[i])
					for r := 0; r < rows; r++ {
						want := SQ8Distance(m, queries[i], min, scale, codes[r*dim:(r+1)*dim])
						if !f32Equal(single[i][r], want) {
							t.Fatalf("dim=%d m=%v q=%d row=%d: block=%x scalar=%x",
								dim, m, i, r, math.Float32bits(single[i][r]), math.Float32bits(want))
						}
					}
				}
				// Multi-query scatter vs the blocked kernel.
				outs := make([][]float32, qn)
				for i := range outs {
					outs[i] = make([]float32, rows)
				}
				DistanceSQ8MultiScatter(m, qarg, min, scale, codes, outs)
				for i := range outs {
					for r := 0; r < rows; r++ {
						if !f32Equal(outs[i][r], single[i][r]) {
							t.Fatalf("dim=%d m=%v q=%d row=%d: scatter=%x single=%x",
								dim, m, i, r, math.Float32bits(outs[i][r]), math.Float32bits(single[i][r]))
						}
					}
				}
			}
		}
	}
}

// TestSQ8KernelAsmMatchesGo pins the dispatched SQ8 kernels, at every
// tier, to the portable contract kernels in TestKernelAsmMatchesGo's
// shape: both kernel shapes × the three ops × every kernelDims dim × 0–13
// rows, which covers every split of the rows into the AVX2 groups (four
// rows single-query, two quad) plus the SSE remainder. The output slot
// past the last row must stay untouched on every output, the four quad
// outputs included.
func TestSQ8KernelAsmMatchesGo(t *testing.T) {
	forEachTier(t, testSQ8KernelAsmMatchesGo)
}

func testSQ8KernelAsmMatchesGo(t *testing.T) {
	const canary = 12345
	rng := rand.New(rand.NewSource(7))
	for _, dim := range kernelDims {
		min, scale := randAffine(rng, dim)
		q := [4][]float32{randVec(rng, dim), randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)}
		for rows := 0; rows <= 13; rows++ {
			codes := randCodes(rng, rows*dim)
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
					sq8L2BlockKernel(q[0], scale, codes, g[0])
					sq8L2BlockGo(q[0], scale, codes, w[0])
				} else {
					sq8DotBlockKernel(q[0], min, scale, codes, g[0], op)
					sq8DotBlockGo(q[0], min, scale, codes, w[0], op)
				}
				same(t, "sq8 block", dim, rows, op, got[0], want[0])
				if op < 0 {
					sq8L2Multi4Kernel(q[0], q[1], q[2], q[3], scale, codes, g[0], g[1], g[2], g[3])
					sq8L2Multi4Go(q[0], q[1], q[2], q[3], scale, codes, w[0], w[1], w[2], w[3])
				} else {
					sq8DotMulti4Kernel(q[0], q[1], q[2], q[3], min, scale, codes, g[0], g[1], g[2], g[3], op)
					sq8DotMulti4Go(q[0], q[1], q[2], q[3], min, scale, codes, w[0], w[1], w[2], w[3], op)
				}
				for i := range got {
					same(t, fmt.Sprintf("sq8 multi4 q%d", i), dim, rows, op, got[i], want[i])
				}
			}
		}
	}
}

// pqRef is the independent scalar reference of the PQ scan contract:
// mod-4 subspace split over the unrolled body, the ragged tail entirely
// into s0, reduced ((s0+s1)+s2)+s3.
func pqRef(table []float32, row []int, ksub int) float32 {
	var s [4]float32
	body := len(row) &^ 3
	for j, c := range row {
		lane := 0
		if j < body {
			lane = j & 3
		}
		s[lane] += table[j*ksub+c]
	}
	return s[0] + s[1] + s[2] + s[3]
}

// TestPQScanBitIdentity sweeps subquantizer counts 1..19 and table sizes
// across narrow/wide codes at every tier: the narrow single-table kernel,
// the wide row loop and both multi-table scans must match the scalar
// reference bit-for-bit for every (query, row).
func TestPQScanBitIdentity(t *testing.T) {
	forEachTier(t, testPQScanBitIdentity)
}

func testPQScanBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for m := 1; m <= 19; m++ {
		for _, ksub := range []int{1, 7, 256, 700} {
			rows := 1 + rng.Intn(33)
			narrow := ksub <= 256 // byte codes can only index 256 codewords
			idx := make([]int, rows*m)
			codes8 := make([]byte, rows*m)
			codes16 := make([]uint16, rows*m)
			for i := range idx {
				idx[i] = rng.Intn(ksub)
				codes8[i] = byte(idx[i])
				codes16[i] = uint16(idx[i])
			}
			for _, qn := range []int{1, 2, 7, 64} {
				tables := make([][]float32, qn)
				for q := range tables {
					tables[q] = randVec(rng, m*ksub)
				}
				for q := range tables {
					out8 := make([]float32, rows)
					out16 := make([]float32, rows)
					if narrow {
						pqScan8Kernel(tables[q], codes8, m, ksub, out8)
					}
					for r := range out16 {
						out16[r] = pqRow16(tables[q], codes16[r*m:(r+1)*m], ksub)
					}
					for r := 0; r < rows; r++ {
						want := pqRef(tables[q], idx[r*m:(r+1)*m], ksub)
						if (narrow && !f32Equal(out8[r], want)) || !f32Equal(out16[r], want) {
							t.Fatalf("m=%d ksub=%d q=%d row=%d: scan8=%x scan16=%x ref=%x",
								m, ksub, q, r, math.Float32bits(out8[r]), math.Float32bits(out16[r]), math.Float32bits(want))
						}
					}
				}
				outs8 := make([][]float32, qn)
				outs16 := make([][]float32, qn)
				for q := range outs8 {
					outs8[q] = make([]float32, rows)
					outs16[q] = make([]float32, rows)
				}
				if narrow {
					PQScan8Multi(tables, codes8, m, ksub, outs8)
				}
				PQScan16Multi(tables, codes16, m, ksub, outs16)
				for q := range tables {
					for r := 0; r < rows; r++ {
						want := pqRef(tables[q], idx[r*m:(r+1)*m], ksub)
						if (narrow && !f32Equal(outs8[q][r], want)) || !f32Equal(outs16[q][r], want) {
							t.Fatalf("multi m=%d ksub=%d q=%d row=%d: scan8=%x scan16=%x ref=%x",
								m, ksub, q, r, math.Float32bits(outs8[q][r]), math.Float32bits(outs16[q][r]), math.Float32bits(want))
						}
					}
				}
			}
		}
	}
	// ksub=700 with qn=64 above covers wide tables; m=0 degenerates to 0.
	outs := [][]float32{{9}}
	PQScan8Multi(nil, nil, 0, 4, outs)
	if outs[0][0] != 0 {
		t.Fatalf("m=0 scan: got %v, want 0", outs[0][0])
	}
}
