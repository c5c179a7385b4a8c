package bench

import (
	"io"
	"math"
	"math/rand"
	"sort"

	"vdtuner/internal/core"
	"vdtuner/internal/gp"
	"vdtuner/internal/shap"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// Figure12Series is one tuner variant's best-so-far curve across the two
// sequential recall-preference phases.
type Figure12Series struct {
	Variant string
	// Curve085 and Curve09 are best-so-far QPS under the active floor,
	// per iteration, for the two phases (floors 0.85 then 0.9).
	Curve085 []float64
	Curve09  []float64
}

// Figure12 reproduces the user-preference study: three VDTuner variants
// optimize recall > 0.85 and then recall > 0.9 in sequence — (1) no
// constraint model, (2) constraint model only, (3) constraint model plus
// bootstrapping from the first phase's data.
func Figure12(w io.Writer, o Options) ([]Figure12Series, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	iters := o.iters()

	var out []Figure12Series

	// Variant 1: no constraint model, no bootstrapping — plain
	// bi-objective VDTuner rerun per phase.
	{
		tr1 := Run(ds, core.New(core.Options{Seed: o.Seed}), iters)
		tr2 := Run(ds, core.New(core.Options{Seed: o.Seed + 1}), iters)
		out = append(out, Figure12Series{
			Variant:  "VDTuner w/o constraint+bootstrap",
			Curve085: tr1.BestCurve(0.85),
			Curve09:  tr2.BestCurve(0.9),
		})
	}
	// Variant 2: constraint model, fresh start per phase.
	{
		tr1 := Run(ds, core.New(core.Options{Seed: o.Seed, RecallFloor: 0.85}), iters)
		tr2 := Run(ds, core.New(core.Options{Seed: o.Seed + 1, RecallFloor: 0.9}), iters)
		out = append(out, Figure12Series{
			Variant:  "VDTuner w/o bootstrap",
			Curve085: tr1.BestCurve(0.85),
			Curve09:  tr2.BestCurve(0.9),
		})
	}
	// Variant 3: constraint model + bootstrapping the second phase with
	// the first phase's observations.
	{
		tn1 := core.New(core.Options{Seed: o.Seed, RecallFloor: 0.85})
		tr1 := Run(ds, tn1, iters)
		tn2 := core.New(core.Options{Seed: o.Seed + 1, RecallFloor: 0.9,
			Bootstrap: tn1.Observations()})
		tr2 := Run(ds, tn2, iters)
		out = append(out, Figure12Series{
			Variant:  "VDTuner",
			Curve085: tr1.BestCurve(0.85),
			Curve09:  tr2.BestCurve(0.9),
		})
	}

	fprintf(w, "Figure 12: handling user recall preferences on %s (%d iters/phase)\n", ds.Name, iters)
	for _, s := range out {
		fprintf(w, "  %-34s final@0.85 %9.1f  final@0.9 %9.1f\n",
			s.Variant, last(s.Curve085), last(s.Curve09))
	}
	return out, nil
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// Figure13Result aggregates the cost-effectiveness study.
type Figure13Result struct {
	// RelQPD and RelQPS compare optimizing QP$ against optimizing QPS:
	// achieved QP$ ratio and QPS ratio under each sacrifice level.
	RelQPD map[float64]float64
	RelQPS map[float64]float64
	// MemoryMeanQPD/QPS and the stddevs compare sampled memory
	// footprints (GiB-equivalents) of the two objectives.
	MemoryMeanQPD, MemoryStdQPD float64
	MemoryMeanQPS, MemoryStdQPS float64
	// MemAttr and QPSAttr are SHAP attributions of parameter groups to
	// memory usage and search speed (Figure 13b).
	MemAttr, QPSAttr map[string]float64
}

// Figure13 reproduces the cost-aware optimization study: tune QP$ vs QPS
// on the high-dimensional dataset, compare achieved cost-effectiveness,
// speed and memory, and attribute memory/speed to parameter groups with
// SHAP on a GP surrogate.
func Figure13(w io.Writer, o Options) (*Figure13Result, error) {
	ds, err := workload.Load(workload.GeoLike(o.scale()))
	if err != nil {
		return nil, err
	}
	costTn := core.New(core.Options{Seed: o.Seed, CostAware: true})
	costTr := Run(ds, costTn, o.iters())
	spdTn := core.New(core.Options{Seed: o.Seed})
	spdTr := Run(ds, spdTn, o.iters())

	res := &Figure13Result{
		RelQPD: map[float64]float64{},
		RelQPS: map[float64]float64{},
	}
	bestUnder := func(tr *Trace, floor float64, qpd bool) float64 {
		best := 0.0
		for _, r := range tr.Records {
			if r.Result.Failed || r.Result.Recall <= floor {
				continue
			}
			v := r.Result.QPS
			if qpd {
				v = core.CostEffectiveness(r.Result)
			}
			if v > best {
				best = v
			}
		}
		return best
	}
	for _, s := range Sacrifices {
		floor := 1 - s
		cq := bestUnder(costTr, floor, true)
		sq := bestUnder(spdTr, floor, true)
		if sq > 0 {
			res.RelQPD[s] = cq / sq
		}
		cs := bestUnder(costTr, floor, false)
		ss := bestUnder(spdTr, floor, false)
		if ss > 0 {
			res.RelQPS[s] = cs / ss
		}
	}
	res.MemoryMeanQPD, res.MemoryStdQPD = memStats(costTr)
	res.MemoryMeanQPS, res.MemoryStdQPS = memStats(spdTr)

	// SHAP attribution on GP surrogates fitted to the cost run's samples.
	memAttr, qpsAttr, err := shapAttribution(costTr, spdTr, o.Seed)
	if err == nil {
		res.MemAttr = memAttr
		res.QPSAttr = qpsAttr
	}

	fprintf(w, "Figure 13: cost-effectiveness vs search-speed optimization on %s\n", ds.Name)
	fprintf(w, "  memory (GiB-eq): QP$ run %.2f ± %.2f, QPS run %.2f ± %.2f\n",
		res.MemoryMeanQPD, res.MemoryStdQPD, res.MemoryMeanQPS, res.MemoryStdQPS)
	for _, s := range Sacrifices {
		fprintf(w, "  sacrifice %.3f: rel QP$ %.3f  rel QPS %.3f\n", s, res.RelQPD[s], res.RelQPS[s])
	}
	if res.MemAttr != nil {
		fprintf(w, "  SHAP → memory:")
		printAttr(w, res.MemAttr)
		fprintf(w, "  SHAP → QPS:   ")
		printAttr(w, res.QPSAttr)
	}
	return res, nil
}

func printAttr(w io.Writer, attr map[string]float64) {
	names := make([]string, 0, len(attr))
	for n := range attr {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return math.Abs(attr[names[i]]) > math.Abs(attr[names[j]]) })
	for _, n := range names {
		fprintf(w, " %s=%+.3f", n, attr[n])
	}
	fprintf(w, "\n")
}

func memStats(tr *Trace) (mean, std float64) {
	var n float64
	for _, r := range tr.Records {
		if r.Result.Failed {
			continue
		}
		mean += core.MemGiB(r.Result.MemoryBytes)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	mean /= n
	for _, r := range tr.Records {
		if r.Result.Failed {
			continue
		}
		d := core.MemGiB(r.Result.MemoryBytes) - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}

// shapAttribution fits GP surrogates for memory and QPS on the union of
// both runs' samples and computes grouped SHAP values at the best sampled
// configuration against the mean configuration.
func shapAttribution(a, b *Trace, seed int64) (memAttr, qpsAttr map[string]float64, err error) {
	var xs [][]float64
	var mem, qps []float64
	var bestX []float64
	bestQPS := -1.0
	for _, tr := range []*Trace{a, b} {
		for _, r := range tr.Records {
			if r.Result.Failed {
				continue
			}
			x := space.Encode(r.Config)
			xs = append(xs, x)
			mem = append(mem, core.MemGiB(r.Result.MemoryBytes))
			qps = append(qps, r.Result.QPS)
			if r.Result.QPS > bestQPS {
				bestQPS = r.Result.QPS
				bestX = x
			}
		}
	}
	if len(xs) < 8 {
		return nil, nil, errTooFewSamples
	}
	memModel, err := gp.Fit(xs, mem)
	if err != nil {
		return nil, nil, err
	}
	qpsModel, err := gp.Fit(xs, qps)
	if err != nil {
		return nil, nil, err
	}
	background := make([]float64, space.Dims)
	for _, x := range xs {
		for i := range x {
			background[i] += x[i]
		}
	}
	for i := range background {
		background[i] /= float64(len(xs))
	}
	groups := map[string][]int{"index_type": {0}}
	for _, p := range []space.Param{vdms.KnobNProbe, vdms.KnobSegmentMaxSize, vdms.KnobInsertBufSize} {
		groups[vdms.Knobs[p].Name] = []int{1 + int(p)}
	}
	var rest []int
	used := map[int]bool{0: true}
	for _, dims := range groups {
		for _, d := range dims {
			used[d] = true
		}
	}
	for d := 1; d < space.Dims; d++ {
		if !used[d] {
			rest = append(rest, d)
		}
	}
	groups["other"] = rest

	rng := rand.New(rand.NewSource(seed))
	memAttr, err = shap.GroupValues(func(x []float64) float64 {
		m, _ := memModel.Predict(x)
		return m
	}, bestX, background, groups, 60, rng)
	if err != nil {
		return nil, nil, err
	}
	qpsAttr, err = shap.GroupValues(func(x []float64) float64 {
		m, _ := qpsModel.Predict(x)
		return m
	}, bestX, background, groups, 60, rng)
	if err != nil {
		return nil, nil, err
	}
	return memAttr, qpsAttr, nil
}

var errTooFewSamples = errorString("bench: too few samples for SHAP attribution")

type errorString string

func (e errorString) Error() string { return string(e) }

// Table6Row is one method's tuning-time breakdown.
type Table6Row struct {
	Method string
	// RecommendSeconds is wall-clock configuration recommendation time.
	RecommendSeconds float64
	// ReplaySeconds is the simulated workload replay time.
	ReplaySeconds float64
	// Total is their sum; Share is recommendation's share of the total.
	Total float64
	Share float64
}

// Table6 reproduces the overhead breakdown: per method, configuration
// recommendation time (wall clock) versus workload replay (simulated).
func Table6(w io.Writer, o Options) ([]Table6Row, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	fprintf(w, "Table VI: time breakdown for %d iterations\n", o.iters())
	fprintf(w, "%-26s %14s %14s %14s %8s\n", "method", "recommend (s)", "replay (s)", "total (s)", "share")
	for _, m := range AllMethods(o.Seed) {
		tr := Run(ds, m, o.iters())
		r := Table6Row{
			Method:           m.Name(),
			RecommendSeconds: tr.TotalRecommendSeconds(),
			ReplaySeconds:    tr.TotalReplaySeconds(),
		}
		r.Total = r.RecommendSeconds + r.ReplaySeconds
		if r.Total > 0 {
			r.Share = r.RecommendSeconds / r.Total
		}
		rows = append(rows, r)
		fprintf(w, "%-26s %14.1f %14.1f %14.1f %7.2f%%\n",
			r.Method, r.RecommendSeconds, r.ReplaySeconds, r.Total, r.Share*100)
	}
	return rows, nil
}

// ScalabilityResult compares VDTuner to qEHVI on the 10x dataset.
type ScalabilityResult struct {
	Floor          float64
	VDTunerQPS     float64
	QEHVIQPS       float64
	SpeedupPercent float64
	// TimeRatio is qEHVI's simulated time to reach qEHVI's own best,
	// divided by VDTuner's time to reach that same level (>1 means
	// VDTuner is faster).
	TimeRatio float64
}

// Scalability reproduces the §V-E large-dataset study on the 10x
// deep-image-like corpus, comparing VDTuner with the strongest baseline
// (qEHVI).
func Scalability(w io.Writer, o Options) (*ScalabilityResult, error) {
	// The corpus is 10x GloVe; shrink the scale to keep runtime sane.
	ds, err := workload.Load(workload.DeepImageLike(o.scale() / 2))
	if err != nil {
		return nil, err
	}
	const floor = 0.9
	vt := Run(ds, newVDTuner(o.Seed), o.iters())
	qe := Run(ds, newBaselines(o.Seed)[3], o.iters())

	vq, _ := vt.BestQPSUnderRecall(floor)
	qq, _ := qe.BestQPSUnderRecall(floor)
	res := &ScalabilityResult{Floor: floor, VDTunerQPS: vq, QEHVIQPS: qq}
	if qq > 0 {
		res.SpeedupPercent = (vq - qq) / qq * 100
		vTime := vt.SimTimeToReach(qq, floor)
		qTime := qe.SimTimeToReach(qq, floor)
		if vTime > 0 {
			res.TimeRatio = qTime / vTime
		}
	}
	fprintf(w, "Scalability (%s, %d vectors): VDTuner %.1f QPS vs qEHVI %.1f QPS at recall>%.2f (%+.0f%%), tuning speedup %.1fx\n",
		ds.Name, len(ds.Vectors), res.VDTunerQPS, res.QEHVIQPS, floor, res.SpeedupPercent, res.TimeRatio)
	return res, nil
}
