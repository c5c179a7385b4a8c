package core

import (
	"math"

	"vdtuner/internal/gp"
	"vdtuner/internal/index"
	"vdtuner/internal/mobo"
	"vdtuner/internal/space"
)

// acquire recommends the next configuration for the polled index type:
// it fits the holistic surrogate on NPI-normalized data, generates a
// candidate set inside the type's subspace (global random samples plus
// local perturbations of the type's best observations), and returns the
// candidate maximizing the acquisition — EHVI with the paper's reference
// point r = 0.5·(yspd_t, yrec_t) (i.e. (0.5, 0.5) in normalized space), or
// constrained EI when a recall floor is set.
func (t *Tuner) acquire(typ index.Type) space.Vector {
	if len(t.obs) < 2 {
		return space.SampleSubspace(typ, t.rng)
	}

	norm, bases := t.normalizedPoints()
	xs := make([][]float64, len(t.obs))
	ya := make([]float64, len(t.obs))
	yb := make([]float64, len(t.obs))
	for i, o := range t.obs {
		xs[i] = o.X
		ya[i] = norm[i].A
		yb[i] = norm[i].B
	}
	modelA, errA := gp.Fit(xs, ya)
	modelB, errB := gp.Fit(xs, yb)
	if errA != nil || errB != nil {
		return space.SampleSubspace(typ, t.rng)
	}

	cands := t.candidates(typ)
	if t.opts.RecallFloor > 0 {
		return t.pickCEI(typ, bases, modelA, modelB, cands)
	}
	return t.pickEHVI(norm, modelA, modelB, cands)
}

// candidates builds the acquisition candidate set for a type: half
// uniform subspace samples (exploration), half Gaussian perturbations of
// the type's best observed configurations (exploitation).
func (t *Tuner) candidates(typ index.Type) []space.Vector {
	n := t.opts.candidates()
	out := make([]space.Vector, 0, n)
	for i := 0; i < n/2; i++ {
		out = append(out, space.SampleSubspace(typ, t.rng))
	}

	// Anchors: the type's non-dominated observations; fall back to the
	// global front re-typed into this subspace (shared-parameter
	// knowledge transfer, §IV-A).
	var anchors []space.Vector
	var typed []Observation
	for _, o := range t.obs {
		if o.Type == typ {
			typed = append(typed, o)
		}
	}
	if len(typed) > 0 {
		for _, i := range mobo.NonDominated(pointsOf(typed)) {
			anchors = append(anchors, typed[i].X)
		}
	} else {
		for _, i := range mobo.NonDominated(pointsOf(t.obs)) {
			anchors = append(anchors, t.obs[i].X)
		}
	}
	if len(anchors) == 0 {
		anchors = append(anchors, space.DefaultVector(typ))
	}
	for len(out) < n {
		a := anchors[t.rng.Intn(len(anchors))]
		out = append(out, space.PerturbSubspace(a, typ, 0.12, t.rng))
	}
	return out
}

// pickEHVI returns the candidate with maximal Monte Carlo EHVI over the
// normalized Pareto front with reference point (0.5, 0.5).
func (t *Tuner) pickEHVI(norm []mobo.Point, modelA, modelB *gp.Model, cands []space.Vector) space.Vector {
	ref := mobo.Point{A: 0.5, B: 0.5}
	front := mobo.Front(norm)
	hv := mobo.Hypervolume(ref, front)

	best := cands[0]
	bestVal := math.Inf(-1)
	for _, c := range cands {
		ma, va := modelA.Predict(c)
		mb, vb := modelB.Predict(c)
		var v float64
		if t.opts.MonteCarloEHVI {
			v = mobo.EHVI(ma, math.Sqrt(va), mb, math.Sqrt(vb), ref, front, hv, mcSamples, t.rng)
		} else {
			v = mobo.EHVIExact(ma, math.Sqrt(va), mb, math.Sqrt(vb), ref, front)
		}
		if v > bestVal {
			bestVal = v
			best = c
		}
	}
	return best
}

// pickCEI returns the candidate with maximal constrained EI (Eq. 7):
// expected speed improvement times the probability that recall exceeds
// the user's floor. Everything is evaluated in the polled type's
// normalized scale.
func (t *Tuner) pickCEI(typ index.Type, bases map[index.Type]base, modelA, modelB *gp.Model, cands []space.Vector) space.Vector {
	bs, ok := bases[typ]
	if !ok {
		bs = base{1, 1}
	}
	// Incumbent: best normalized speed among feasible observations (any
	// type, each in its own normalization — consistent with the shared
	// surrogate's target scale).
	bestSpd := 0.0
	norm, _ := t.normalizedPoints()
	for i, o := range t.obs {
		if o.Result.Failed || o.ObjB <= t.opts.RecallFloor {
			continue
		}
		if norm[i].A > bestSpd {
			bestSpd = norm[i].A
		}
	}
	floorNorm := t.opts.RecallFloor / bs.b

	best := cands[0]
	bestVal := math.Inf(-1)
	for _, c := range cands {
		ma, va := modelA.Predict(c)
		mb, vb := modelB.Predict(c)
		v := mobo.ConstrainedEI(ma, math.Sqrt(va), bestSpd, mb, math.Sqrt(vb), floorNorm)
		if v > bestVal {
			bestVal = v
			best = c
		}
	}
	return best
}
