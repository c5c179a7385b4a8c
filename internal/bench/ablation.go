package bench

import (
	"io"
	"math"
	"sort"

	"vdtuner/internal/core"
	"vdtuner/internal/index"
	"vdtuner/internal/mobo"
	"vdtuner/internal/space"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// Figure8Cell is one ablation comparison point.
type Figure8Cell struct {
	Variant   string
	Sacrifice float64
	QPS       float64
}

// Figure8 reproduces both ablations: (a) successive abandon vs round
// robin, and (b) polling (NPI) surrogate vs native surrogate, reporting
// best QPS under each recall sacrifice on GloVe.
func Figure8(w io.Writer, o Options) ([]Figure8Cell, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	variants := []Method{
		core.New(core.Options{Seed: o.Seed}),
		core.New(core.Options{Seed: o.Seed, RoundRobin: true}),
		core.New(core.Options{Seed: o.Seed, NativeSurrogate: true}),
	}
	var cells []Figure8Cell
	fprintf(w, "Figure 8: budget-allocation and surrogate ablations on %s (%d iters)\n", ds.Name, o.iters())
	fprintf(w, "%-28s", "variant \\ sacrifice")
	for _, s := range Sacrifices {
		fprintf(w, " %8.3f", s)
	}
	fprintf(w, "\n")
	for _, m := range variants {
		tr := Run(ds, m, o.iters())
		fprintf(w, "%-28s", m.Name())
		for _, s := range Sacrifices {
			qps, ok := tr.BestQPSUnderRecall(1 - s)
			cells = append(cells, Figure8Cell{Variant: m.Name(), Sacrifice: s, QPS: qps})
			if ok {
				fprintf(w, " %8.1f", qps)
			} else {
				fprintf(w, " %8s", "-")
			}
		}
		fprintf(w, "\n")
	}
	return cells, nil
}

// Figure9Point is the score weight of one index type at one iteration.
type Figure9Point struct {
	Iter    int
	Weights map[index.Type]float64
}

// Figure9 records VDTuner's dynamic index-type scores across a run: each
// iteration's Eq. 6 scores normalized to weights (abandoned types weigh
// zero), reproducing the scoring visualization.
func Figure9(w io.Writer, o Options) ([]Figure9Point, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	tn := core.New(core.Options{Seed: o.Seed})
	var points []Figure9Point
	for i := 0; i < o.iters(); i++ {
		cfg := tn.Next()
		res := vdms.Evaluate(ds, cfg)
		tn.Observe(cfg, res)

		scores := tn.Scores()
		weights := map[index.Type]float64{}
		total := 0.0
		for _, typ := range tn.Remaining() {
			s := scores[typ]
			if s < 0 {
				s = 0
			}
			weights[typ] = s
			total += s
		}
		if total > 0 {
			for typ := range weights {
				weights[typ] /= total
			}
		}
		points = append(points, Figure9Point{Iter: i, Weights: weights})
	}
	fprintf(w, "Figure 9: dynamic index scores on %s\n", ds.Name)
	last := points[len(points)-1]
	fprintf(w, "  final weights:")
	for _, typ := range index.AllTypes() {
		fprintf(w, " %s=%.2f", typ, last.Weights[typ])
	}
	fprintf(w, "\n  abandoned (in order):")
	tnAb := tn.Abandoned()
	for _, typ := range tnAb {
		fprintf(w, " %s", typ)
	}
	fprintf(w, "\n")
	return points, nil
}

// Figure10Point is one sampled configuration with its Pareto rank.
type Figure10Point struct {
	Variant   string
	IndexType index.Type
	QPS       float64
	Recall    float64
	OnFront   bool
}

// Figure10 dumps every configuration sampled by the polling surrogate and
// the native surrogate, with Pareto-front membership — the sampling
// quality scatter of Figure 10.
func Figure10(w io.Writer, o Options) ([]Figure10Point, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	variants := []Method{
		core.New(core.Options{Seed: o.Seed, NativeSurrogate: true}),
		core.New(core.Options{Seed: o.Seed}),
	}
	var points []Figure10Point
	fprintf(w, "Figure 10: sampling quality, native vs polling surrogate\n")
	for _, m := range variants {
		tr := Run(ds, m, o.iters())
		var pts []mobo.Point
		for _, r := range tr.Records {
			pts = append(pts, mobo.Point{A: r.Result.QPS, B: r.Result.Recall})
		}
		onFront := map[int]bool{}
		for _, i := range mobo.NonDominated(pts) {
			onFront[i] = true
		}
		var recallSpread, qSum float64
		minR, maxR := 1.0, 0.0
		for i, r := range tr.Records {
			points = append(points, Figure10Point{
				Variant: m.Name(), IndexType: r.Config.IndexType,
				QPS: r.Result.QPS, Recall: r.Result.Recall, OnFront: onFront[i],
			})
			if !r.Result.Failed {
				if r.Result.Recall < minR {
					minR = r.Result.Recall
				}
				if r.Result.Recall > maxR {
					maxR = r.Result.Recall
				}
				qSum += r.Result.QPS
			}
		}
		recallSpread = maxR - minR
		fprintf(w, "  %-28s recall spread %.3f  mean QPS %.1f  front size %d\n",
			m.Name(), recallSpread, qSum/float64(len(tr.Records)), len(onFront))
	}
	return points, nil
}

// Table5Row is one dataset column of Table V: the best configuration's
// index type and its owned parameters.
type Table5Row struct {
	Dataset   string
	IndexType index.Type
	Params    map[string]float64
}

// Table5 reports the index type and representative parameters VDTuner
// recommends per dataset (GloVe-like, ArXiv-like, Keyword-like).
func Table5(w io.Writer, o Options) ([]Table5Row, error) {
	specs := []workload.Spec{
		workload.GloVeLike(o.scale()),
		workload.ArxivLike(o.scale()),
		workload.KeywordLike(o.scale()),
	}
	var rows []Table5Row
	fprintf(w, "Table V: best index and parameters across datasets (%d iters)\n", o.iters())
	for _, spec := range specs {
		ds, err := workload.Load(spec)
		if err != nil {
			return nil, err
		}
		tn := core.New(core.Options{Seed: o.Seed})
		tr := Run(ds, tn, o.iters())
		obs := tr.Observations()
		// "Best": the most balanced non-dominated configuration.
		front := core.ParetoFront(obs)
		if len(front) == 0 {
			continue
		}
		var maxQ, maxR float64
		for _, f := range front {
			if f.ObjA > maxQ {
				maxQ = f.ObjA
			}
			if f.ObjB > maxR {
				maxR = f.ObjB
			}
		}
		best := front[0]
		bestGap := 2.0
		for _, f := range front {
			gap := abs(f.ObjA/maxQ - f.ObjB/maxR)
			if gap < bestGap {
				bestGap = gap
				best = f
			}
		}
		params := ownedParams(best.Config)
		rows = append(rows, Table5Row{Dataset: ds.Name, IndexType: best.Config.IndexType, Params: params})
		fprintf(w, "%-16s index: %-9s", ds.Name, best.Config.IndexType)
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fprintf(w, "  %s: %.0f", n, params[n])
		}
		fprintf(w, "\n")
	}
	return rows, nil
}

// ownedParams extracts the index parameters the configuration's type owns.
func ownedParams(cfg vdms.Config) map[string]float64 {
	out := map[string]float64{}
	for i := range vdms.Knobs {
		if k := &vdms.Knobs[i]; k.Owners != nil && k.OwnedBy(cfg.IndexType) {
			out[k.Name] = k.Get(&cfg)
		}
	}
	return out
}

// Figure11Point is the normalized value of tracked parameters at one
// iteration.
type Figure11Point struct {
	Iter   int
	Values map[string]float64
}

// Figure11 tracks how the recommended parameter values evolve across a
// VDTuner run on the high-dimensional dataset (exploration early,
// exploitation late).
func Figure11(w io.Writer, o Options) ([]Figure11Point, error) {
	ds, err := workload.Load(workload.GeoLike(o.scale()))
	if err != nil {
		return nil, err
	}
	tn := core.New(core.Options{Seed: o.Seed})
	tracked := []space.Param{vdms.KnobNList, vdms.KnobNProbe, vdms.KnobSealProportion, vdms.KnobGracefulTime}
	var points []Figure11Point
	for i := 0; i < o.iters(); i++ {
		cfg := tn.Next()
		res := vdms.Evaluate(ds, cfg)
		tn.Observe(cfg, res)
		x := space.Encode(cfg)
		vals := map[string]float64{}
		for _, p := range tracked {
			vals[vdms.Knobs[p].Name] = x[1+int(p)]
		}
		points = append(points, Figure11Point{Iter: i, Values: vals})
	}
	// Report early vs late dispersion per parameter.
	fprintf(w, "Figure 11: parameter convergence on %s\n", ds.Name)
	half := len(points) / 2
	for _, p := range tracked {
		name := vdms.Knobs[p].Name
		early := dispersion(points[:half], name)
		late := dispersion(points[half:], name)
		fprintf(w, "  %-24s early stddev %.3f  late stddev %.3f\n", name, early, late)
	}
	return points, nil
}

func dispersion(points []Figure11Point, name string) float64 {
	if len(points) == 0 {
		return 0
	}
	var mean float64
	for _, pt := range points {
		mean += pt.Values[name]
	}
	mean /= float64(len(points))
	var v float64
	for _, pt := range points {
		d := pt.Values[name] - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(points)))
}

// HolisticResult compares the holistic model against tuning each index
// type individually (§V-D).
type HolisticResult struct {
	HolisticType   index.Type
	IndividualType index.Type
	// CloseParams is the fraction of owned parameters whose values agree
	// within 5% of the parameter's range (paper: >80% of parameters
	// within 5%).
	CloseParams float64
}

// HolisticVsIndividual runs the holistic VDTuner and seven per-type
// tuners (budget split evenly), compares the selected index types and the
// closeness of recommended parameters.
func HolisticVsIndividual(w io.Writer, o Options) (*HolisticResult, error) {
	ds, err := workload.Load(workload.GloVeLike(o.scale()))
	if err != nil {
		return nil, err
	}
	holTn := core.New(core.Options{Seed: o.Seed})
	hol := Run(ds, holTn, o.iters())
	holBest, ok := core.BestUnderRecall(hol.Observations(), 0.85)
	if !ok {
		holBest, _ = core.BestUnderRecall(hol.Observations(), 0)
	}

	perType := o.iters() / len(index.AllTypes())
	if perType < 3 {
		perType = 3
	}
	var indBest core.Observation
	found := false
	for _, typ := range index.AllTypes() {
		typ := typ
		tn := core.New(core.Options{Seed: o.Seed, FixedType: &typ})
		tr := Run(ds, tn, perType)
		b, ok := core.BestUnderRecall(tr.Observations(), 0.85)
		if !ok {
			b, ok = core.BestUnderRecall(tr.Observations(), 0)
		}
		if ok && (!found || b.ObjA > indBest.ObjA) {
			indBest = b
			found = true
		}
	}
	res := &HolisticResult{
		HolisticType:   holBest.Config.IndexType,
		IndividualType: indBest.Config.IndexType,
	}
	// Parameter closeness over shared (system) parameters plus owned
	// index parameters when the types agree.
	xa := space.Encode(holBest.Config)
	xb := space.Encode(indBest.Config)
	n, close := 0, 0
	for p := 0; p < space.NumParams; p++ {
		k := &vdms.Knobs[p]
		if k.Owners != nil && (res.HolisticType != res.IndividualType || !k.OwnedBy(res.HolisticType)) {
			continue
		}
		n++
		if abs(xa[1+p]-xb[1+p]) <= 0.05 {
			close++
		}
	}
	if n > 0 {
		res.CloseParams = float64(close) / float64(n)
	}
	fprintf(w, "Holistic vs individual (§V-D): holistic picks %s, individual picks %s, %.0f%% of comparable params within 5%%\n",
		res.HolisticType, res.IndividualType, res.CloseParams*100)
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
