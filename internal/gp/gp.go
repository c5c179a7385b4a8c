// Package gp implements Gaussian process regression with a Matérn 5/2
// kernel — the surrogate model of the paper (§IV-B). Hyperparameters
// (lengthscale, noise) are selected by maximizing the log marginal
// likelihood over a small grid, which is robust and dependency-free.
//
// Targets are standardized internally; predictions are returned on the
// original scale. Multi-output modeling (search speed and recall rate) is
// done by fitting one independent Model per objective, exactly as the
// paper assumes ("adopts a multi-output GP by assuming each output to be
// independent").
package gp

import (
	"fmt"
	"math"
)

// Model is a fitted Gaussian process regressor.
type Model struct {
	dim         int
	lengthscale float64
	noise       float64
	x           [][]float64
	l           [][]float64 // Cholesky factor of K + noise*I
	alpha       []float64   // (K + noise I)^-1 y~
	yMean, yStd float64
	lml         float64
}

// matern52 evaluates the Matérn 5/2 kernel at distance r with unit signal
// variance: (1 + √5 r + 5r²/3)·exp(−√5 r), r scaled by the lengthscale.
func matern52(r2, lengthscale float64) float64 {
	const sqrt5 = 2.23606797749978969
	r := math.Sqrt(r2) / lengthscale
	s := sqrt5 * r
	return (1 + s + 5*r*r/3) * math.Exp(-s)
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Fit trains a GP on inputs x (each of equal dimension, conventionally in
// [0,1]^d) and targets y, selecting hyperparameters by grid-searched log
// marginal likelihood.
func Fit(x [][]float64, y []float64) (*Model, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("gp: no training data")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("gp: input %d has dim %d, want %d", i, len(xi), dim)
		}
	}

	// Standardize targets.
	mean, std := meanStd(y)
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - mean) / std
	}

	// Precompute the squared-distance matrix once.
	n := len(x)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := sqDist(x[i], x[j])
			d2[i][j] = d
			d2[j][i] = d
		}
	}

	best := (*Model)(nil)
	for _, ls := range []float64{0.1, 0.2, 0.35, 0.5, 0.8, 1.25, 2.0} {
		// Scale lengthscale with dimension so the grid covers [0,1]^d
		// geometries uniformly across dims.
		lsEff := ls * math.Sqrt(float64(dim))
		for _, noise := range []float64{1e-4, 1e-3, 1e-2, 5e-2} {
			m, err := fitOne(x, ys, d2, lsEff, noise)
			if err != nil {
				continue
			}
			if best == nil || m.lml > best.lml {
				best = m
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: no hyperparameter setting produced a positive-definite kernel")
	}
	best.yMean, best.yStd = mean, std
	return best, nil
}

func fitOne(x [][]float64, ys []float64, d2 [][]float64, lengthscale, noise float64) (*Model, error) {
	n := len(x)
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = matern52(d2[i][j], lengthscale)
		}
		k[i][i] += noise
	}
	var l [][]float64
	var err error
	jitter := 0.0
	for attempt := 0; attempt < 4; attempt++ {
		l, err = cholesky(k)
		if err == nil {
			break
		}
		// Escalate jitter: 1e-8, 1e-6, 1e-4 added to the diagonal.
		add := math.Pow(10, float64(-8+2*attempt))
		for i := range k {
			k[i][i] += add - jitter
		}
		jitter = add
	}
	if err != nil {
		return nil, err
	}
	alpha := solveUpperT(l, solveLower(l, ys))

	// Log marginal likelihood: -0.5 yᵀα − Σ log L_ii − n/2 log 2π.
	lml := 0.0
	for i := range ys {
		lml -= 0.5 * ys[i] * alpha[i]
		lml -= math.Log(l[i][i])
	}
	lml -= 0.5 * float64(n) * math.Log(2*math.Pi)

	return &Model{
		dim: len(x[0]), lengthscale: lengthscale, noise: noise,
		x: x, l: l, alpha: alpha, yStd: 1, lml: lml,
	}, nil
}

// Predict returns the posterior mean and variance at x on the original
// target scale. Variance is non-negative.
func (m *Model) Predict(x []float64) (mean, variance float64) {
	n := len(m.x)
	ks := make([]float64, n)
	for i, xi := range m.x {
		ks[i] = matern52(sqDist(x, xi), m.lengthscale)
	}
	mu := 0.0
	for i := range ks {
		mu += ks[i] * m.alpha[i]
	}
	v := solveLower(m.l, ks)
	varStd := 1.0 + m.noise
	for i := range v {
		varStd -= v[i] * v[i]
	}
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return mu*m.yStd + m.yMean, varStd * m.yStd * m.yStd
}

func meanStd(y []float64) (mean, std float64) {
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(y)))
	if std < 1e-9 {
		std = 1 // constant targets: keep scale, predictions revert to mean
	}
	return mean, std
}
