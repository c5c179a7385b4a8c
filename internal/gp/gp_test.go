package gp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitInterpolatesTrainingPoints(t *testing.T) {
	// With low noise selected, GP posterior mean at training points must
	// be close to the targets.
	x := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := []float64{0, 0.7, 1.0, 0.7, 0}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mu, _ := m.Predict(x[i])
		if math.Abs(mu-y[i]) > 0.15 {
			t.Fatalf("Predict(%v) = %v, want ~%v", x[i], mu, y[i])
		}
	}
}

func TestVarianceShrinksNearData(t *testing.T) {
	x := [][]float64{{0.2}, {0.4}, {0.6}}
	y := []float64{1, 2, 3}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, varAt := m.Predict([]float64{0.4})
	_, varFar := m.Predict([]float64{5.0})
	if varAt >= varFar {
		t.Fatalf("variance at data %v not smaller than far away %v", varAt, varFar)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = math.Sin(3*x[i][0]) + x[i][1]
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		_, v := m.Predict([]float64{rng.Float64() * 2, rng.Float64() * 2})
		if v < 0 {
			t.Fatalf("negative variance %v", v)
		}
	}
}

func TestPredictGeneralizesSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x []float64) float64 { return math.Sin(4*x[0]) + 0.5*math.Cos(2*x[1]) }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, p)
		ys = append(ys, f(p))
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	const trials = 100
	for i := 0; i < trials; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		mu, _ := m.Predict(p)
		d := mu - f(p)
		mse += d * d
	}
	mse /= trials
	if mse > 0.05 {
		t.Fatalf("test MSE %v too high for a smooth function", mse)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("accepted length mismatch")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("accepted ragged inputs")
	}
}

func TestFitConstantTargets(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{2, 2, 2}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict([]float64{0.3})
	if math.Abs(mu-2) > 0.2 {
		t.Fatalf("constant-target prediction %v, want ~2", mu)
	}
}

func TestFitDuplicateInputs(t *testing.T) {
	// Duplicates with different targets require the noise term; must not
	// error out.
	x := [][]float64{{0.5}, {0.5}, {0.9}}
	y := []float64{1, 1.4, 0}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict([]float64{0.5})
	if mu < 0.8 || mu > 1.6 {
		t.Fatalf("duplicate-input prediction %v, want near the duplicate mean", mu)
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, math.Sqrt(2)}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := cholesky(a); err == nil {
		t.Fatal("accepted indefinite matrix")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	// Build SPD matrix A = B Bᵀ + I.
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = rng.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			for k := 0; k < n; k++ {
				a[i][j] += b[i][k] * b[j][k]
			}
		}
		a[i][i]++
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := solveUpperT(l, solveLower(l, rhs))
	// Check A x == rhs.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a[i][j] * x[j]
		}
		if math.Abs(s-rhs[i]) > 1e-8 {
			t.Fatalf("A x != rhs at %d: %v vs %v", i, s, rhs[i])
		}
	}
}

func TestMatern52Properties(t *testing.T) {
	if k := matern52(0, 1); math.Abs(k-1) > 1e-12 {
		t.Fatalf("k(0) = %v, want 1", k)
	}
	// Monotone decreasing in distance.
	prev := 2.0
	for r2 := 0.0; r2 < 10; r2 += 0.5 {
		k := matern52(r2, 1)
		if k > prev {
			t.Fatalf("kernel not decreasing at r2=%v", r2)
		}
		if k < 0 {
			t.Fatalf("kernel negative at r2=%v", r2)
		}
		prev = k
	}
}

func TestHyperparameterSelectionPrefersGoodFit(t *testing.T) {
	// Smooth data should select a lengthscale that is not the minimum.
	x := make([][]float64, 25)
	y := make([]float64, 25)
	for i := range x {
		v := float64(i) / 24
		x[i] = []float64{v}
		y[i] = v * v
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if m.lengthscale <= 0.1 {
		t.Fatalf("selected minimal lengthscale %v for smooth data", m.lengthscale)
	}
	if m.noise > 1e-2 {
		t.Fatalf("selected high noise %v for noiseless data", m.noise)
	}
}

func BenchmarkFit100x16(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = make([]float64, 16)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = x[i][0] + math.Sin(3*x[i][1])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	x := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = x[i][0] * x[i][1]
	}
	m, err := Fit(x, y)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{0.3, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(q)
	}
}

func TestFitHighDimensional(t *testing.T) {
	// 16-dimensional inputs (the tuner's space) must fit and predict
	// finite values with sane variance.
	rng := rand.New(rand.NewSource(6))
	n, dim := 80, 16
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = x[i][0]*2 + math.Sin(3*x[i][5]) + 0.1*rng.NormFloat64()
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, dim)
	for j := range probe {
		probe[j] = rng.Float64()
	}
	mu, v := m.Predict(probe)
	if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(v) || v < 0 {
		t.Fatalf("prediction (%v, %v) not finite/sane", mu, v)
	}
}

func TestPredictRevertsToPriorFarAway(t *testing.T) {
	// Far from data, the posterior mean reverts toward the target mean
	// and the variance toward the prior.
	x := [][]float64{{0.4}, {0.5}, {0.6}}
	y := []float64{10, 12, 14}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	mu, v := m.Predict([]float64{100})
	if math.Abs(mu-12) > 0.5 {
		t.Fatalf("far prediction %v did not revert to mean 12", mu)
	}
	_, vNear := m.Predict([]float64{0.5})
	if v <= vNear {
		t.Fatalf("far variance %v not above near variance %v", v, vNear)
	}
}

func TestFitSinglePoint(t *testing.T) {
	m, err := Fit([][]float64{{0.5}}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict([]float64{0.5})
	if math.Abs(mu-3) > 0.5 {
		t.Fatalf("single-point prediction %v, want ~3", mu)
	}
}
