package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdtuner/internal/linalg"
)

// refSelectCells is the probe selection selectCells replaced: a bounded
// max-heap of the best nprobe (distance, cell) pairs, worst at the root,
// ties ordered by larger cell id = worse, heap-sorted ascending at the
// end. It is the reference selectCells must match for every input without
// a NaN. heap and heapD are its scratch, as searchScratch held them, at
// least nprobe long.
func refSelectCells(dists []float32, nprobe int, heap []int32, heapD []float32) []int32 {
	heap, heapD = heap[:0], heapD[:0]
	worse := func(i, j int) bool {
		return heapD[i] > heapD[j] || (heapD[i] == heapD[j] && heap[i] > heap[j])
	}
	swap := func(i, j int) {
		heap[i], heap[j] = heap[j], heap[i]
		heapD[i], heapD[j] = heapD[j], heapD[i]
	}
	siftDown := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			w := i
			if l < n && worse(l, w) {
				w = l
			}
			if r < n && worse(r, w) {
				w = r
			}
			if w == i {
				return
			}
			swap(i, w)
			i = w
		}
	}
	for cell := 0; cell < len(dists); cell++ {
		d := dists[cell]
		if len(heap) < nprobe {
			heap = append(heap, int32(cell))
			heapD = append(heapD, d)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(i, parent) {
					break
				}
				swap(i, parent)
				i = parent
			}
			continue
		}
		if d > heapD[0] || (d == heapD[0] && int32(cell) > heap[0]) {
			continue
		}
		heap[0], heapD[0] = int32(cell), d
		siftDown(0, nprobe)
	}
	for n := len(heap) - 1; n > 0; n-- {
		swap(0, n)
		siftDown(0, n)
	}
	return heap
}

// selectInput draws n centroid distances built to tie and to straddle
// the float order's corners: values from a small pool (so equal distances
// recur), both zeros, +Inf, and negative inner-product distances.
func selectInput(rng *rand.Rand, n int) []float32 {
	pool := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), -1e30, -3.5, -1, 1, 2.25, 1e30,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	d := make([]float32, n)
	for i := range d {
		switch rng.Intn(3) {
		case 0:
			d[i] = pool[rng.Intn(len(pool))]
		case 1:
			d[i] = float32(rng.Intn(7) - 3)
		default:
			d[i] = float32(rng.NormFloat64() * 100)
		}
	}
	return d
}

// TestSelectCellsMatchesReference compares selectCells with the heap it
// replaced over random inputs with ties, ±0, +Inf and negative distances,
// at every nprobe in [1, n]: the cells and their order must be equal.
func TestSelectCellsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s searchScratch
	cases := 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(64)
		if trial%50 == 0 {
			n = 256
		}
		dists := selectInput(rng, n)
		for nprobe := 1; nprobe <= n; nprobe++ {
			got := make([]int32, nprobe)
			selectCells(dists, got, &s)
			want := refSelectCells(dists, nprobe, make([]int32, nprobe), make([]float32, nprobe))
			if !slices.Equal(got, want) {
				t.Fatalf("n %d nprobe %d dists %v: selected %v, reference %v", n, nprobe, dists, got, want)
			}
			cases++
		}
	}
	if cases < 20000 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestSelectCellsNaN pins the probe order when a centroid distance is
// NaN, as an inner product that overflows float32 yields (+Inf + −Inf
// inside the dot): every NaN, whatever its sign, sorts after +Inf, and
// NaNs tie among themselves, broken by cell id like any tie.
func TestSelectCellsNaN(t *testing.T) {
	inf := float32(math.Inf(1))
	qnan := math.Float32frombits(0x7fc00000)
	negNaN := math.Float32frombits(0xffc00000) // x86's default NaN
	// Finite 16-d vectors whose inner product is NaN: under the kernels'
	// mod-4 accumulator split, lane 0 overflows to +Inf and lane 1 to -Inf.
	q, cent := make([]float32, 16), make([]float32, 16)
	for i := range q {
		q[i] = 1e19
		cent[i] = [4]float32{1e19, -1e19, 0, 0}[i%4]
	}
	ip := linalg.Distance(linalg.InnerProduct, q, cent)
	if ip == ip {
		t.Fatalf("inner-product distance %v, want NaN", ip)
	}
	dists := []float32{negNaN, 3, inf, qnan, -2, inf, ip, 3, 0, negNaN, -inf, float32(math.Copysign(0, -1))}
	want := []int32{10, 4, 8, 11, 1, 7, 2, 5, 0, 3, 6, 9}
	var s searchScratch
	for nprobe := 1; nprobe <= len(dists); nprobe++ {
		got := make([]int32, nprobe)
		selectCells(dists, got, &s)
		if !slices.Equal(got, want[:nprobe]) {
			t.Fatalf("nprobe %d: selected %v, want %v", nprobe, got, want[:nprobe])
		}
	}
}

// BenchmarkSelectCells times the probe selection, the heap it replaced
// against selectCells, at the shapes the benchmark workloads run: 32 of
// 256 cells (scan) and 8 of 64 (mixed), over random L2 distances.
func BenchmarkSelectCells(b *testing.B) {
	for _, shape := range []struct{ nprobe, nlist int }{{32, 256}, {8, 64}} {
		rng := rand.New(rand.NewSource(7))
		inputs := make([][]float32, 64)
		for i := range inputs {
			inputs[i] = make([]float32, shape.nlist)
			for j := range inputs[i] {
				inputs[i][j] = rng.Float32() * 4
			}
		}
		name := fmt.Sprintf("%dof%d", shape.nprobe, shape.nlist)
		b.Run(name+"/heap", func(b *testing.B) {
			heap, heapD := make([]int32, shape.nprobe), make([]float32, shape.nprobe)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refSelectCells(inputs[i%len(inputs)], shape.nprobe, heap, heapD)
			}
		})
		b.Run(name+"/select", func(b *testing.B) {
			var s searchScratch
			dst := make([]int32, shape.nprobe)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				selectCells(inputs[i%len(inputs)], dst, &s)
			}
		})
	}
}
