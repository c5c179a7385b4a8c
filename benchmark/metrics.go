package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"vdtuner/internal/index"
)

// decl mirrors BENCHMARK.json: the names, units, directions and bounds
// every run is checked against and every comparison applies.
type decl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDecl reads BENCHMARK.json from the working directory (the root of a
// checkout, where the command runs) or its parent (where go test runs).
func loadDecl() (*decl, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	d := &decl{}
	if err := json.Unmarshal(raw, d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// ownBounds are the regression bounds of the headline metrics that the
// driver's contract cannot carry as end-to-end metrics — it wants each of
// those on every workload and steady across seeds, and these exist on one
// workload only or are too noisy on one of them (README, "Headline
// metrics outside end_to_end"). They are declared under per_layer, whose
// entries the contract gives a name, a unit and a direction and nothing
// else, so their bounds cannot stand in BENCHMARK.json; -compare applies
// the ones below.
var ownBounds = map[string]float64{
	"search_p50_ms": 0.25, "ingest_rows_per_s": 0.25,
	"write_p50_ms": 0.25, "recovery_s": 0.25, "disk_x_raw": 0.05,
	"tune_s": 0.25, "tune_hv": 0, "tune_best_qps_x": 0, "failed_share": 0,
}

// layerOnly names the layer metrics that belong to the probes of some
// workloads only. A traced run of any other workload does not measure them
// and its last line reads 0 for them; every other declared layer metric
// must come out of every traced run, or the run is incorrect.
var layerOnly = func() map[string][]string {
	only := map[string][]string{"kmeans.run_ms": {"scan", "mixed"}} // the IVF workloads
	for _, t := range index.AllTypes() {
		only["index.search_us."+t.String()] = []string{"scan"}
		only["index.recall."+t.String()] = []string{"scan"}
	}
	for _, n := range []string{
		"write_p50_ms", "write_p99_ms", "write_late_max_ms", "write_late_share", "recovery_s", "disk_x_raw",
		"server.write_call_us", "server.write_self_us", "vdms.insert_durable_us", "vdms.delete_us",
		"vdms.compact_ms", "vdms.recover_rebuild_ms", "persist.wal_append_us",
		"persist.wal_bytes_per_user_byte", "persist.checkpoint_ms", "persist.snapshot_load_ms",
		"persist.wal_replay_ms", "persist.disk_bytes_end",
	} {
		only[n] = []string{"mixed"}
	}
	for _, n := range []string{
		"tune_s", "tune_hv", "tune_best_qps_x", "vdms.evaluate_s_total", "vdms.open_s_total",
		"vdms.sim_rank_spearman", "core.next_ms_total", "core.next_ms_p50", "core.useful_eval_share",
		"core.abandoned_types", "core.front_size", "gp.fit_ms", "gp.predict_us", "mobo.ehvi_us", "mobo.hv_us",
	} {
		only[n] = []string{"tune"}
	}
	return only
}()

// measuredOn reports whether a traced run of the workload must measure the
// layer metric.
func measuredOn(name, workload string) bool {
	only, restricted := layerOnly[name]
	return !restricted || slices.Contains(only, workload)
}

// metric is one reported number — the median of the run's repetitions
// (set-ups, or windows of the timed phase) — with the repetitions' extremes
// kept as its spread.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Reps is how many repetitions Value is the median of; Samples is how
	// many individual measurements (calls, ops) stand behind one
	// repetition, 0 when the metric is not a sample statistic.
	Reps    int     `json:"reps"`
	Samples int     `json:"samples,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// results collects a run's metrics in first-set order.
type results struct {
	byName map[string]metric
	order  []string
	twice  []string // names set more than once, which execute reports
}

func newResults() *results { return &results{byName: map[string]metric{}} }

// set records name as the median of the repetition values.
func (r *results) set(name, unit string, samples int, reps ...float64) {
	if _, dup := r.byName[name]; dup {
		r.twice = append(r.twice, name)
	} else {
		r.order = append(r.order, name)
	}
	r.byName[name] = metric{Value: median(reps), Unit: unit, Reps: len(reps), Samples: samples,
		Min: slices.Min(reps), Max: slices.Max(reps)}
}

// median of v, which is not modified; NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentileNs returns the p-th percentile (nearest rank) of sorted
// nanosecond durations, in the unit div converts to.
func percentileNs(sorted []int64, p float64, div float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / div
}

// spearman is the rank correlation of a and b (average ranks on ties).
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	n := float64(len(ra))
	ma, mb = ma/n, mb/n
	var cov, va, vb float64
	for i := range ra {
		cov += (ra[i] - ma) * (rb[i] - mb)
		va += (ra[i] - ma) * (ra[i] - ma)
		vb += (rb[i] - mb) * (rb[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			out[idx[k]] = float64(i+j)/2 + 1
		}
		i = j + 1
	}
	return out
}
