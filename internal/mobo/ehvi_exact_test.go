package mobo

import (
	"math"
	"math/rand"
	"testing"
)

func TestEHVIExactSinglePointHandCalc(t *testing.T) {
	// Deterministic candidate (0.9, 0.9) over front {(0.5, 0.5)} with
	// ref (0,0): union area 0.81, front area 0.25, improvement 0.56.
	ref := Point{0, 0}
	front := []Point{{A: 0.5, B: 0.5}}
	got := EHVIExact(0.9, 0, 0.9, 0, ref, front)
	if math.Abs(got-0.56) > 1e-12 {
		t.Fatalf("EHVIExact = %v, want 0.56", got)
	}
}

func TestEHVIExactEmptyFront(t *testing.T) {
	ref := Point{0, 0}
	got := EHVIExact(1, 0, 2, 0, ref, nil)
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("EHVIExact over empty front = %v, want 2", got)
	}
}

func TestEHVIExactDominatedCandidateZero(t *testing.T) {
	ref := Point{0, 0}
	front := []Point{{A: 1, B: 1}}
	if got := EHVIExact(0.5, 0, 0.5, 0, ref, front); got != 0 {
		t.Fatalf("dominated deterministic candidate EHVI = %v, want 0", got)
	}
	if got := EHVIExact(-1, 0, -1, 0, ref, front); got != 0 {
		t.Fatalf("sub-reference candidate EHVI = %v, want 0", got)
	}
}

// hvImprovement returns the deterministic hypervolume improvement of
// adding y to the front: the σ→0 limit of EHVI, its test reference.
func hvImprovement(y Point, ref Point, front []Point) float64 {
	base := Hypervolume(ref, front)
	with := Hypervolume(ref, append(append([]Point(nil), front...), y))
	if with < base {
		return 0
	}
	return with - base
}

func TestEHVIExactMatchesDeterministicHVImprovement(t *testing.T) {
	// With σ→0, EHVIExact must equal the plain HV improvement for
	// random fronts and candidates.
	rng := rand.New(rand.NewSource(1))
	ref := Point{0, 0}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8) + 1
		front := make([]Point, n)
		for i := range front {
			front[i] = Point{rng.Float64(), rng.Float64()}
		}
		y := Point{rng.Float64() * 1.2, rng.Float64() * 1.2}
		want := hvImprovement(y, ref, front)
		got := EHVIExact(y.A, 0, y.B, 0, ref, front)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: exact %v vs deterministic %v (front %v, y %v)",
				trial, got, want, front, y)
		}
	}
}

func TestEHVIExactMatchesMonteCarlo(t *testing.T) {
	// The MC estimator must converge to the closed form.
	rng := rand.New(rand.NewSource(2))
	ref := Point{0, 0}
	for trial := 0; trial < 12; trial++ {
		n := rng.Intn(5) + 1
		front := make([]Point, n)
		for i := range front {
			front[i] = Point{rng.Float64(), rng.Float64()}
		}
		meanA := rng.Float64() * 1.5
		meanB := rng.Float64() * 1.5
		stdA := 0.05 + rng.Float64()*0.3
		stdB := 0.05 + rng.Float64()*0.3
		exact := EHVIExact(meanA, stdA, meanB, stdB, ref, front)
		hv := Hypervolume(ref, Front(front))
		mc := EHVI(meanA, stdA, meanB, stdB, ref, Front(front), hv, 40000, rng)
		tol := 0.05 * (exact + 0.01)
		if math.Abs(mc-exact) > tol {
			t.Fatalf("trial %d: MC %v vs exact %v (tol %v)", trial, mc, exact, tol)
		}
	}
}

func TestEHVIExactMonotoneInMean(t *testing.T) {
	ref := Point{0, 0}
	front := []Point{{A: 0.8, B: 0.2}, {A: 0.2, B: 0.8}}
	prev := -1.0
	for mean := 0.0; mean <= 1.5; mean += 0.1 {
		v := EHVIExact(mean, 0.1, 0.5, 0.1, ref, front)
		if v < prev-1e-12 {
			t.Fatalf("EHVI decreased in meanA at %v: %v -> %v", mean, prev, v)
		}
		prev = v
	}
}

func TestEHVIExactIgnoresDominatedFrontPoints(t *testing.T) {
	ref := Point{0, 0}
	front := []Point{{A: 0.8, B: 0.8}}
	withDominated := append([]Point{}, front...)
	withDominated = append(withDominated, Point{A: 0.3, B: 0.3}, Point{A: -1, B: 0.5})
	a := EHVIExact(0.9, 0.1, 0.9, 0.1, ref, front)
	b := EHVIExact(0.9, 0.1, 0.9, 0.1, ref, withDominated)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("dominated front points changed EHVI: %v vs %v", a, b)
	}
}

// TestPartialExpectation checks Ψ(c) = E[max(0, Y − c)], the integral
// EHVIExact builds its strips from, as computed by EI.
func TestPartialExpectation(t *testing.T) {
	// Deterministic cases.
	if got := EI(3, 0, 1); got != 2 {
		t.Fatalf("deterministic partial expectation = %v", got)
	}
	if got := EI(0, 0, 1); got != 0 {
		t.Fatalf("deterministic zero case = %v", got)
	}
	// Symmetric case: E[max(0, Y)] for Y ~ N(0,1) = 1/sqrt(2π).
	want := 1 / math.Sqrt(2*math.Pi)
	if got := EI(0, 1, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[Y+] = %v, want %v", got, want)
	}
}

func BenchmarkEHVIExact(b *testing.B) {
	b.ReportAllocs()
	ref := Point{0, 0}
	front := []Point{{A: 0.9, B: 0.1}, {A: 0.7, B: 0.4}, {A: 0.4, B: 0.7}, {A: 0.1, B: 0.9}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EHVIExact(0.8, 0.1, 0.8, 0.1, ref, front)
	}
}
