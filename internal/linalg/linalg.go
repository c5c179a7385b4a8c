// Package linalg provides the float32 vector math kernel shared by every
// index implementation: distance functions, norms, and small dense helpers.
//
// All distances follow the "smaller is better" convention. For angular
// (cosine) similarity the engine stores normalized vectors and uses
// 1 - dot(a, b), which is a monotone transform of the angle.
//
// The rule of the package: kernels.go holds the only scalar float32
// distance arithmetic — the portable kernels, which define the bit-exact
// contract (four accumulators over indices mod 4, tail into the first,
// summed in order, no FMA), run wherever CPUID reports no AVX2, and are
// reproduced bitwise by the AVX2 kernels, which pad a short final group of
// rows with its last row (kernels_amd64.go). Every distance entry point is
// a caller of the dispatched block kernels: Dot, SquaredL2 and Distance on
// one row, DistanceRows on scattered rows, DistanceBlock and the *Multi*
// forms on packed arenas. A new distance loop written anywhere else is a
// second copy of that contract and a bug waiting for the first rounding
// difference.
package linalg

import (
	"fmt"
	"math"
)

// Metric identifies a distance function.
type Metric int

const (
	// L2 is squared Euclidean distance (monotone in Euclidean distance,
	// cheaper to compute; rankings are identical).
	L2 Metric = iota
	// InnerProduct is negative dot product, so that smaller is better.
	InnerProduct
	// Angular is cosine distance, 1 - cos(a, b), assuming unit vectors.
	Angular
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case InnerProduct:
		return "IP"
	case Angular:
		return "Angular"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric maps a metric name — the String form ("L2", "IP",
// "Angular") or the lowercase CLI spelling ("l2", "ip", "angular") — to
// its value.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "L2", "l2":
		return L2, nil
	case "IP", "ip":
		return InnerProduct, nil
	case "Angular", "angular":
		return Angular, nil
	default:
		return 0, fmt.Errorf("linalg: unknown metric %q (want l2, ip, or angular)", s)
	}
}

// Dot returns the dot product of a and b. The slices must have equal
// length. It is a one-row call of the block kernel (see kernels.go for
// the arithmetic contract), so its bits are those of a scan's row; at the
// AVX2 tier it is one padded group.
func Dot(a, b []float32) float32 {
	var out [1]float32
	dotBlockKernel(a, b, out[:], opNone)
	return out[0]
}

// SquaredL2 returns the squared Euclidean distance between a and b; like
// Dot, a one-row call of the block kernel.
func SquaredL2(a, b []float32) float32 {
	var out [1]float32
	l2BlockKernel(a, b, out[:])
	return out[0]
}

// DistanceBlock computes the distance of q to every row of block, a
// packed row-major arena of len(block)/dim rows (one contiguous range of a
// Matrix), under metric m, writing row i's distance to out[i]. Each out[i]
// is bitwise equal to Distance(m, q, row_i) (Distance is this kernel on
// one row); the win is streaming contiguous memory instead of chasing
// per-row pointers. On amd64 the scan runs as an AVX2 kernel whose
// lane structure mirrors the portable kernel's scalar accumulators exactly
// (see kernels_amd64.go). The InnerProduct/Angular epilogue is fused into
// the scoring loop (negation and 1-x are exact, so fusing changes no
// bits), saving the second sweep over out.
func DistanceBlock(m Metric, q, block []float32, out []float32) {
	switch m {
	case L2:
		l2BlockKernel(q, block, out)
	case InnerProduct:
		dotBlockKernel(q, block, out, opNeg)
	case Angular:
		dotBlockKernel(q, block, out, opOneMinus)
	default:
		panic("linalg: unknown metric " + m.String())
	}
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(Dot(v, v))))
}

// Normalize scales v to unit norm in place. Zero vectors are left unchanged.
// A v whose float32 squared norm overflows or is below the smallest normal
// float32 is first divided by its largest |component|, as LAPACK's snrm2
// scales, so it normalises like any other.
func Normalize(v []float32) {
	ss := Dot(v, v)
	if ss > math.MaxFloat32 || ss < 0x1p-126 {
		var amax float32
		for _, x := range v {
			amax = max(amax, x, -x)
		}
		if amax == 0 {
			return
		}
		for i := range v {
			v[i] /= amax
		}
		ss = Dot(v, v)
	}
	inv := 1 / float32(math.Sqrt(float64(ss)))
	for i := range v {
		v[i] *= inv
	}
}

// Distance computes the distance between a and b under metric m.
// For Angular the inputs are assumed to be unit vectors.
func Distance(m Metric, a, b []float32) float32 {
	var out [1]float32
	DistanceBlock(m, a, b, out[:])
	return out[0]
}

// DistanceRows computes the distance of q to the scattered rows
// store.Row(rows[i]) under metric m, writing it to out[i] — the gather
// form of DistanceBlock for graph traversal, where the rows to score are
// a node's neighbors and not contiguous. Rows are scored four at a time
// by the gathered kernels, which take four row addresses; a final group
// of one to three rows repeats its last row and drops the extra results.
// Per row the arithmetic is the block kernels', so every out[i] is bitwise
// equal to Distance(m, q, row_i).
func DistanceRows(m Metric, q []float32, store *Matrix, rows []int32, out []float32) {
	l2, op := metricKernel(m)
	out = out[:len(rows)]
	var spare [4]float32
	for i := 0; i < len(rows); i += 4 {
		g := rows[i:min(i+4, len(rows))]
		last := len(g) - 1
		r0 := store.Row(int(g[0]))
		r1 := store.Row(int(g[min(1, last)]))
		r2 := store.Row(int(g[min(2, last)]))
		r3 := store.Row(int(g[last]))
		dst := &spare
		if last == 3 {
			dst = (*[4]float32)(out[i : i+4])
		}
		if l2 {
			l2Gather4Kernel(q, r0, r1, r2, r3, dst)
		} else {
			dotGather4Kernel(q, r0, r1, r2, r3, dst, op)
		}
		if last < 3 {
			copy(out[i:], spare[:len(g)])
		}
	}
}

// Scale multiplies v by s in place.
func Scale(v []float32, s float32) {
	for i := range v {
		v[i] *= s
	}
}

// AddInto accumulates src into dst element-wise. Lengths must match.
func AddInto(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Clone returns a copy of v.
func Clone(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}
