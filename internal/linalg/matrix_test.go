package linalg

import (
	"math/rand"
	"reflect"
	"testing"
)

func randRows(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64())
		}
	}
	return rows
}

func TestMatrixRowsRoundTrip(t *testing.T) {
	rows := randRows(37, 12, 1)
	m := MatrixFromRows(rows)
	if m.Rows() != 37 || m.Dim() != 12 || !m.Packed() {
		t.Fatalf("shape: %d x %d packed=%v", m.Rows(), m.Dim(), m.Packed())
	}
	for i, r := range rows {
		if !reflect.DeepEqual(m.Row(i), r) {
			t.Fatalf("row %d differs", i)
		}
	}
	if m.Bytes() != 37*12*4 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestMatrixSliceViewsShareArena(t *testing.T) {
	m := MatrixFromRows(randRows(10, 4, 2))
	v := m.Slice(3, 7)
	if v.Rows() != 4 {
		t.Fatalf("view rows = %d", v.Rows())
	}
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(v.Row(i), m.Row(3+i)) {
			t.Fatalf("view row %d differs from parent row %d", i, 3+i)
		}
	}
	// Writes through the view hit the parent.
	v.Row(0)[0] = 42
	if m.Row(3)[0] != 42 {
		t.Fatal("view write did not reach the parent arena")
	}
	// Appending through a packed view must never stomp the parent's
	// following rows.
	before := append([]float32(nil), m.Row(7)...)
	v.AppendRow([]float32{9, 9, 9, 9})
	if !reflect.DeepEqual(m.Row(7), before) {
		t.Fatal("append through a view overwrote the parent")
	}
}

func TestMatrixSubspaceView(t *testing.T) {
	rows := randRows(9, 12, 3)
	m := MatrixFromRows(rows)
	v := m.SubspaceView(4, 8)
	if v.Rows() != 9 || v.Dim() != 4 || v.Packed() {
		t.Fatalf("subspace shape: %d x %d packed=%v", v.Rows(), v.Dim(), v.Packed())
	}
	for i, r := range rows {
		if !reflect.DeepEqual(v.Row(i), r[4:8]) {
			t.Fatalf("subspace row %d differs", i)
		}
	}
}

func TestMatrixRowOps(t *testing.T) {
	m := MatrixFromRows([][]float32{{1, 1}, {2, 2}, {3, 3}})
	m.SwapRows(0, 2)
	if m.Row(0)[0] != 3 || m.Row(2)[0] != 1 {
		t.Fatalf("SwapRows: %v / %v", m.Row(0), m.Row(2))
	}
	m.CopyRow(2, 0)
	if m.Row(2)[0] != 3 {
		t.Fatalf("CopyRow: %v", m.Row(2))
	}
	m.Truncate(1)
	if m.Rows() != 1 {
		t.Fatalf("Truncate: %d rows", m.Rows())
	}
	m.AppendRow([]float32{7, 7})
	if m.Rows() != 2 || m.Row(1)[0] != 7 {
		t.Fatalf("AppendRow after Truncate: %d rows, %v", m.Rows(), m.Row(1))
	}
}

// TestBlockKernelsBitIdentical is the layout-change contract: the blocked
// kernels must produce bitwise the same float32 per row as the portable
// scalar kernels on that row (refDot and friends, multi_test.go), for
// every metric.
func TestBlockKernelsBitIdentical(t *testing.T) {
	rows := randRows(257, 33, 4) // odd sizes exercise the unroll tails
	m := MatrixFromRows(rows)
	q := randRows(1, 33, 5)[0]
	out := make([]float32, m.Rows())
	dotBlockKernel(q, m.Data(), out, opNone)
	for i, r := range rows {
		if want := refDot(q, r); out[i] != want {
			t.Fatalf("dotBlockKernel row %d: %v != scalar %v", i, out[i], want)
		}
	}
	l2BlockKernel(q, m.Data(), out)
	for i, r := range rows {
		if want := refSquaredL2(q, r); out[i] != want {
			t.Fatalf("l2BlockKernel row %d: %v != scalar %v", i, out[i], want)
		}
	}
	for _, metric := range []Metric{L2, InnerProduct, Angular} {
		DistanceBlock(metric, q, m.Data(), out)
		for i, r := range rows {
			if want := refDistance(metric, q, r); out[i] != want {
				t.Fatalf("DistanceBlock(%v) row %d: %v != scalar %v", metric, i, out[i], want)
			}
		}
	}
}

func TestTopKResetReuse(t *testing.T) {
	var top TopK
	for round := 0; round < 3; round++ {
		top.Reset(3)
		for i := 0; i < 10; i++ {
			top.Push(int64(i), float32((i*7+round)%10))
		}
		dst := make([]Neighbor, 0, top.Len())
		dst = top.AppendResults(dst)
		if len(dst) != 3 {
			t.Fatalf("round %d: %d results", round, len(dst))
		}
		for i := 1; i < len(dst); i++ {
			if dst[i].Dist < dst[i-1].Dist {
				t.Fatalf("round %d: results unsorted: %v", round, dst)
			}
		}
		if top.Len() != 0 {
			t.Fatalf("round %d: collector not drained", round)
		}
	}
}

// TestTopKAppendResultsMatchesResults pins the pooled path to the
// allocating one.
func TestTopKAppendResultsMatchesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 1
		k := rng.Intn(10) + 1
		a := NewTopK(k)
		b := NewTopK(k)
		for i := 0; i < n; i++ {
			d := float32(rng.NormFloat64())
			a.Push(int64(i), d)
			b.Push(int64(i), d)
		}
		want := a.Results()
		got := b.AppendResults(nil)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: AppendResults %v != Results %v", trial, got, want)
		}
	}
}
