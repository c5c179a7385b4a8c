package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// holds what the harness really measured (the record's metrics, not the
// last line, which is built from the declaration) to BENCHMARK.json: an
// untraced run measures every end-to-end metric, a traced run exactly the
// per-layer metrics layerOnly gives its workload, each finite and in its
// declared unit, and neither measures a name that is not declared.
func TestSmoke(t *testing.T) {
	d, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	units := map[string]string{}
	for _, list := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
		for _, m := range list {
			if _, dup := units[m.Name]; dup {
				t.Errorf("%s is declared twice", m.Name)
			}
			units[m.Name] = m.Unit
		}
	}
	for name, only := range layerOnly {
		if _, ok := units[name]; !ok {
			t.Errorf("layerOnly names %s, which BENCHMARK.json does not declare", name)
		}
		for _, w := range only {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layerOnly gives %s to %q, which is not a workload", name, w)
			}
		}
	}
	dir := t.TempDir()
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			rec, err := execute(d, w.Name, 7, 0.5, 0.02, trace, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d %v", w.Name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			for name, got := range rec.Metrics {
				unit, ok := units[name]
				if !ok {
					t.Errorf("%s trace=%v: %s is not declared", w.Name, trace, name)
				} else if got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, declared unit %q", w.Name, trace, name, got.Value, got.Unit, unit)
				}
			}
			if !trace {
				for _, m := range d.EndToEnd {
					if rec.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is missing or 0", w.Name, m.Name)
					}
				}
				continue
			}
			for _, m := range d.PerLayer {
				if _, ok := rec.Metrics[m.Name]; ok != measuredOn(m.Name, w.Name) {
					t.Errorf("%s traced: %s measured=%v, layerOnly says %v", w.Name, m.Name, ok, !ok)
				}
			}
			if got, want := len(rec.lastLine(d).Metrics), len(d.PerLayer); got != want {
				t.Errorf("%s traced: %d metrics on the last line, %d declared", w.Name, got, want)
			}
		}
	}
}

// TestTooShort: a timed phase too short to give the paced writer's
// statistics an op per window is refused, not divided by.
func TestTooShort(t *testing.T) {
	d, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(d, "mixed", 7, 0.01, 0.02, false, t.TempDir()); err == nil {
		t.Error("mixed accepted -seconds 0.01")
	}
}
