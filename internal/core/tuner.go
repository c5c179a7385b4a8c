// Package core implements VDTuner, the paper's contribution (§IV): a
// multi-objective Bayesian optimization tuner for vector data management
// systems that
//
//   - learns one holistic surrogate over the union of every index type's
//     parameters plus the shared system parameters (§IV-A);
//   - polls one index type per iteration and recommends a configuration in
//     that type's subspace by expected hypervolume improvement (§IV-C);
//   - normalizes observations per index type (NPI, Eqs. 2–3) so that scale
//     differences between index types cannot trap the model (§IV-B);
//   - allocates budget by successively abandoning index types whose
//     hypervolume contribution (Eq. 6) stays worst for a window (§IV-D);
//   - supports user recall-rate preferences through a constrained EI
//     acquisition (Eq. 7) with bootstrapping from previous runs (§IV-F);
//   - supports cost-aware objectives (QP$, Eq. 8) by swapping the speed
//     objective for cost-effectiveness (§V-E).
package core

import (
	"math/rand"

	"vdtuner/internal/index"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
)

// Observation is one evaluated configuration with its effective objectives
// (objective A is QPS, or QP$ in cost-aware mode; objective B is recall).
type Observation struct {
	Config vdms.Config
	X      space.Vector
	Type   index.Type
	ObjA   float64
	ObjB   float64
	Result vdms.Result
}

// Options configures a Tuner. The zero value plus a Seed is the paper's
// default full configuration; the ablation switches turn individual
// components off for the Figure 8 / §V-D studies.
type Options struct {
	// Seed drives all randomized choices; runs are deterministic per seed.
	Seed int64
	// AbandonWindow is the number of consecutive worst-score iterations
	// before an index type is abandoned (paper: 10). Zero means 10.
	AbandonWindow int
	// Candidates is the acquisition candidate-set size per iteration.
	// Zero means 160.
	Candidates int
	// MonteCarloEHVI selects the paper's Monte Carlo EHVI estimator
	// (mcSamples samples) instead of the exact 2-D closed form. The two
	// agree in expectation (property-tested); the closed form is the
	// default because it is noise-free and faster.
	MonteCarloEHVI bool
	// RecallFloor, when positive, switches to the constraint model
	// (§IV-F): maximize speed subject to recall > RecallFloor via CEI.
	RecallFloor float64
	// CostAware replaces the speed objective by cost-effectiveness
	// QP$ = QPS / (η · memory GiB) (§V-E). η only rescales and is fixed
	// to 1, as in the paper.
	CostAware bool
	// Bootstrap warm-starts the model with observations from a previous
	// run (e.g. an earlier recall-floor setting; §IV-F).
	Bootstrap []Observation
	// NativeSurrogate disables NPI normalization (ablation, Fig. 8b).
	NativeSurrogate bool
	// RoundRobin disables successive abandonment (ablation, Fig. 8a).
	RoundRobin bool
	// FixedType, when non-nil, restricts tuning to a single index type
	// (the "optimize each index type individually" comparison, §V-D).
	FixedType *index.Type
}

// mcSamples is the Monte Carlo EHVI sample count.
const mcSamples = 48

func (o *Options) window() int {
	if o.AbandonWindow <= 0 {
		return 10
	}
	return o.AbandonWindow
}

func (o *Options) candidates() int {
	if o.Candidates <= 0 {
		return 160
	}
	return o.Candidates
}

// Tuner is VDTuner's polling Bayesian optimization engine (Algorithm 1).
// Drive it with alternating Next / Observe calls.
type Tuner struct {
	opts Options
	rng  *rand.Rand

	obs       []Observation
	remaining []index.Type
	pollPos   int

	// initQueue holds the initial per-type default configurations
	// (Algorithm 1 lines 1–5).
	initQueue []space.Vector
	// pending is the configuration handed out by the last Next call,
	// matched up in Observe.
	pending *space.Vector

	worstType   index.Type
	worstStreak int
	lastScores  map[index.Type]float64
	abandonLog  []index.Type
}

// New creates a tuner over the full index-type set.
func New(opts Options) *Tuner {
	t := &Tuner{
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		remaining:  index.AllTypes(),
		lastScores: map[index.Type]float64{},
		worstType:  index.Type(-1),
	}
	if opts.FixedType != nil {
		t.remaining = []index.Type{*opts.FixedType}
	}
	for _, typ := range t.remaining {
		t.initQueue = append(t.initQueue, space.DefaultVector(typ))
	}
	t.obs = append(t.obs, opts.Bootstrap...)
	return t
}

// Remaining returns the index types still under consideration.
func (t *Tuner) Remaining() []index.Type {
	out := make([]index.Type, len(t.remaining))
	copy(out, t.remaining)
	return out
}

// Abandoned returns the abandon order so far (earliest first).
func (t *Tuner) Abandoned() []index.Type {
	out := make([]index.Type, len(t.abandonLog))
	copy(out, t.abandonLog)
	return out
}

// Scores returns the most recent per-type budget-allocation scores
// (Eq. 6); abandoned types score zero. Used for the Figure 9 study.
func (t *Tuner) Scores() map[index.Type]float64 {
	out := make(map[index.Type]float64, len(t.lastScores))
	for k, v := range t.lastScores {
		out[k] = v
	}
	return out
}

// Observations returns all recorded observations (including bootstrap).
func (t *Tuner) Observations() []Observation {
	out := make([]Observation, len(t.obs))
	copy(out, t.obs)
	return out
}

// Name implements the Method interface used by the experiment runner.
func (t *Tuner) Name() string {
	switch {
	case t.opts.RecallFloor > 0:
		return "VDTuner(constraint)"
	case t.opts.CostAware:
		return "VDTuner(cost)"
	case t.opts.NativeSurrogate:
		return "VDTuner(native-surrogate)"
	case t.opts.RoundRobin:
		return "VDTuner(round-robin)"
	default:
		return "VDTuner"
	}
}

// Next recommends the next configuration to evaluate (Algorithm 1 lines
// 6–21): score and possibly abandon index types, rebuild the surrogate on
// normalized data, poll the next index type, and maximize the acquisition
// in its subspace.
func (t *Tuner) Next() vdms.Config {
	if len(t.initQueue) > 0 {
		x := t.initQueue[0]
		t.initQueue = t.initQueue[1:]
		t.pending = &x
		return space.Decode(x)
	}

	if !t.opts.RoundRobin && len(t.remaining) > 1 {
		t.updateAbandonment()
	}

	typ := t.remaining[t.pollPos%len(t.remaining)]
	t.pollPos++

	x := t.acquire(typ)
	t.pending = &x
	return space.Decode(x)
}

// Observe records the evaluation result of the configuration returned by
// the previous Next call. Failed evaluations are fed the worst values
// observed so far, avoiding the scaling problem (paper §V-A).
func (t *Tuner) Observe(cfg vdms.Config, res vdms.Result) {
	var x space.Vector
	if t.pending != nil {
		x = *t.pending
		t.pending = nil
	} else {
		x = space.Encode(cfg)
	}
	a, b := t.objectives(res)
	t.obs = append(t.obs, Observation{
		Config: cfg, X: x, Type: cfg.IndexType, ObjA: a, ObjB: b, Result: res,
	})
}

// objectives maps an engine result to the effective objective pair,
// substituting worst-in-history values for failures.
func (t *Tuner) objectives(res vdms.Result) (a, b float64) {
	if res.Failed {
		return t.worstObjectives()
	}
	a = res.QPS
	if t.opts.CostAware {
		a = CostEffectiveness(res)
	}
	return a, res.Recall
}

func (t *Tuner) worstObjectives() (a, b float64) {
	const eps = 1e-6
	a, b = eps, eps
	first := true
	for _, o := range t.obs {
		if o.Result.Failed {
			continue
		}
		if first || o.ObjA < a {
			a = o.ObjA
		}
		if first || o.ObjB < b {
			b = o.ObjB
		}
		first = false
	}
	if a <= 0 {
		a = eps
	}
	if b <= 0 {
		b = eps
	}
	return a, b
}

// CostEffectiveness computes QP$ (paper Eq. 8) with η = 1 $/(s·GiB-eq).
// Memory is converted to paper-scale GiB-equivalents so reported values
// land in the regime of Figure 13.
func CostEffectiveness(res vdms.Result) float64 {
	return res.QPS / MemGiB(res.MemoryBytes)
}

// MemGiB converts engine bytes to paper-scale GiB-equivalents: the
// generated corpora are ~170x smaller than the paper's, so the footprint
// is scaled up by that factor for reporting.
func MemGiB(bytes int64) float64 {
	g := float64(bytes) * 170 / (1 << 30)
	if g < 1e-9 {
		g = 1e-9
	}
	return g
}
