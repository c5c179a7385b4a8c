package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32() - 0.5
			b[i] = rng.Float32() - 0.5
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if !almostEqual(got, want, 1e-4) {
			t.Fatalf("n=%d Dot = %v, want %v", n, got, want)
		}
	}
}

func TestSquaredL2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32()
			b[i] = rng.Float32()
			d := float64(a[i]) - float64(b[i])
			want += d * d
		}
		got := float64(SquaredL2(a, b))
		if !almostEqual(got, want, 1e-4) {
			t.Fatalf("n=%d SquaredL2 = %v, want %v", n, got, want)
		}
	}
}

func TestSquaredL2Identity(t *testing.T) {
	// d(x, x) == 0 for arbitrary vectors (property test).
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		return SquaredL2(vals, vals) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredL2Symmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := rng.Intn(20) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()
			b[i] = rng.Float32()
		}
		return SquaredL2(a, b) == SquaredL2(b, a)
	}
	for i := 0; i < 100; i++ {
		if !f() {
			t.Fatal("SquaredL2 not symmetric")
		}
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !almostEqual(float64(Norm(v)), 1, 1e-6) {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	zero := []float32{0, 0, 0}
	Normalize(zero) // must not panic or produce NaN
	for _, x := range zero {
		if x != 0 {
			t.Fatalf("zero vector changed: %v", zero)
		}
	}
}

// TestNormalizeExtremeScales: co-directional vectors whose float32
// squared norm underflows (1e-20), is ordinary (1) or overflows (3e19)
// normalise to within an ulp of one unit vector — the float64 unit vector
// along the same direction.
func TestNormalizeExtremeScales(t *testing.T) {
	dir := []float64{3, 1, -2, 0.5}
	var norm float64
	for _, x := range dir {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for _, scale := range []float64{1e-20, 1, 3e19} {
		v := make([]float32, len(dir))
		for i, x := range dir {
			v[i] = float32(x * scale)
		}
		Normalize(v)
		for i, x := range v {
			want := float32(dir[i] / norm)
			if ulps := int64(math.Float32bits(x)) - int64(math.Float32bits(want)); ulps < -1 || ulps > 1 {
				t.Fatalf("scale %g: component %d = %v, want %v within an ulp (normalised %v)", scale, i, x, want, v)
			}
		}
	}
}

func TestAngularRange(t *testing.T) {
	// For unit vectors, angular distance lies in [0, 2].
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(16) + 2
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		Normalize(a)
		Normalize(b)
		d := Distance(Angular, a, b)
		if d < -1e-5 || d > 2+1e-5 {
			t.Fatalf("angular distance out of range: %v", d)
		}
	}
}

func TestDistanceMetricsAgreeOnOrdering(t *testing.T) {
	// For unit vectors, L2 and Angular must rank neighbors identically:
	// ||a-b||^2 = 2 - 2*dot = 2*angular.
	rng := rand.New(rand.NewSource(5))
	q := make([]float32, 8)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	Normalize(q)
	type pair struct{ l2, ang float32 }
	var ps []pair
	for i := 0; i < 50; i++ {
		v := make([]float32, 8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		Normalize(v)
		ps = append(ps, pair{SquaredL2(q, v), Distance(Angular, q, v)})
	}
	byL2 := make([]pair, len(ps))
	copy(byL2, ps)
	sort.Slice(byL2, func(i, j int) bool { return byL2[i].l2 < byL2[j].l2 })
	for i := 1; i < len(byL2); i++ {
		if byL2[i].ang < byL2[i-1].ang-1e-5 {
			t.Fatalf("ordering disagrees at %d: %+v before %+v", i, byL2[i-1], byL2[i])
		}
	}
}

func TestTopKExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(200) + 1
		k := rng.Intn(20) + 1
		dists := make([]float32, n)
		top := NewTopK(k)
		for i := range dists {
			dists[i] = rng.Float32()
			top.Push(int64(i), dists[i])
		}
		got := top.Results()
		sorted := append([]float32(nil), dists...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			t.Fatalf("got %d results, want %d", len(got), want)
		}
		for i, nb := range got {
			if nb.Dist != sorted[i] {
				t.Fatalf("trial %d: result[%d] = %v, want %v", trial, i, nb.Dist, sorted[i])
			}
		}
	}
}

func TestTopKSortedAscending(t *testing.T) {
	f := func(dists []float32) bool {
		if len(dists) == 0 {
			return true
		}
		top := NewTopK(5)
		for i, d := range dists {
			if math.IsNaN(float64(d)) {
				continue
			}
			top.Push(int64(i), d)
		}
		res := top.Results()
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	top := NewTopK(2)
	top.Push(1, 0.1)
	top.Push(2, 0.2)
	if top.Push(3, 0.5) {
		t.Fatal("Push retained a worse candidate when full")
	}
	if !top.Push(4, 0.05) {
		t.Fatal("Push rejected a better candidate")
	}
}

// TestTopKExcludeMatchesPrefiltered: a collector with an exclusion set,
// fed by Push and PushBlock in random blocks, holds after every call
// exactly the heap — entry for entry, so ties land where they would — of
// a plain collector that was Pushed the same sequence with the excluded
// ids taken out first, and drains to the same results. Distances come
// from eight values (dense ties), ids repeat, k runs 1–20, the excluded
// share 0–100 %, and the set is also nil or empty.
func TestTopKExcludeMatchesPrefiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 600; trial++ {
		k := rng.Intn(20) + 1
		n := rng.Intn(300)
		ids := make([]int64, n)
		dists := make([]float32, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(n/2 + 1))
			dists[i] = float32(rng.Intn(8))
		}
		var set map[int64]struct{}
		switch trial % 3 {
		case 1:
			set = map[int64]struct{}{}
		case 2:
			set = map[int64]struct{}{}
			share := float64(trial%11) / 10
			for id := int64(0); id <= int64(n/2); id++ {
				if rng.Float64() < share {
					set[id] = struct{}{}
				}
			}
		}
		got := NewTopK(k).Exclude(set)
		ref := NewTopK(k)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(24))
			if rng.Intn(2) == 0 {
				got.PushBlock(ids[lo:hi], dists[lo:hi])
				for i := lo; i < hi; i++ {
					if _, dead := set[ids[i]]; !dead {
						ref.Push(ids[i], dists[i])
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					_, dead := set[ids[i]]
					want := !dead && ref.Push(ids[i], dists[i])
					if kept := got.Push(ids[i], dists[i]); kept != want {
						t.Fatalf("trial %d: Push(%d, %v) = %v, prefiltered %v", trial, ids[i], dists[i], kept, want)
					}
				}
			}
			if !reflect.DeepEqual(append([]Neighbor{}, got.heap...), append([]Neighbor{}, ref.heap...)) {
				t.Fatalf("trial %d after [%d, %d): heap %v, prefiltered %v", trial, lo, hi, got.heap, ref.heap)
			}
			lo = hi
		}
		if g, w := got.AppendResults(nil), ref.AppendResults(nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: results %v, prefiltered %v", trial, g, w)
		}
	}
}

// TestTopKExcludeLifetime: Reset and Exclude(nil) let go of the set.
func TestTopKExcludeLifetime(t *testing.T) {
	set := map[int64]struct{}{7: {}}
	top := NewTopK(2).Exclude(set)
	if top.Push(7, 0) || top.Excluded() == nil {
		t.Fatal("excluded id retained")
	}
	if top.Reset(2).Excluded() != nil || !top.Push(7, 0) {
		t.Fatal("Reset kept the exclusion set")
	}
	if top.Exclude(set).Exclude(nil).Excluded() != nil || !top.Push(7, 1) {
		t.Fatal("Exclude(nil) kept the exclusion set")
	}
}

func TestTopKInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

func BenchmarkDot128(b *testing.B) {
	b.ReportAllocs()
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(128 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkSquaredL2_128(b *testing.B) {
	b.ReportAllocs()
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(128 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredL2(x, y)
	}
}
