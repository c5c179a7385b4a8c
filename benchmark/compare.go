package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles applies every metric's bound to two result files, a the
// parent and b the change, one row per metric and workload. A metric
// whose median moved past its bound is REGRESSED or improved; one that did
// not, but whose own repetitions spread wider than the bound on either
// side, is unresolved, not unchanged. Metrics without a bound are listed
// with their change and no verdict.
func compareFiles(d *decl, a, b string) error {
	fa, err := readResults(a)
	if err != nil {
		return err
	}
	fb, err := readResults(b)
	if err != nil {
		return err
	}
	if fa.Env != fb.Env {
		fmt.Printf("note: environments differ\n  a: %+v\n  b: %+v\n", fa.Env, fb.Env)
	}
	type rule struct {
		metricDecl
		bounded bool
	}
	var rules []rule
	for _, m := range d.EndToEnd {
		rules = append(rules, rule{m, true})
	}
	for _, m := range d.PerLayer {
		bound, own := ownBounds[m.Name]
		m.Bound = bound
		rules = append(rules, rule{m, own})
	}
	regressed, pairs := 0, 0
	fmt.Printf("%-7s %-32s %-7s %14s %14s %9s %7s  %s\n", "", "metric", "unit", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range fa.Runs {
		for _, rb := range fb.Runs {
			if ra.Workload != rb.Workload || ra.Trace != rb.Trace {
				continue
			}
			pairs++
			if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.Scale != rb.Scale {
				fmt.Printf("note: %s runs differ in seed, seconds or scale\n", ra.Workload)
			}
			for _, m := range rules {
				va, oka := ra.Metrics[m.Name]
				vb, okb := rb.Metrics[m.Name]
				if !oka || !okb || (va.Value == 0 && vb.Value == 0) {
					continue
				}
				worse := (vb.Value - va.Value) / math.Abs(va.Value)
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "-"
				if m.bounded {
					switch {
					case worse > m.Bound:
						verdict = "REGRESSED"
						regressed++
					case worse < -m.Bound:
						verdict = "improved"
					case math.Max(va.spread(), vb.spread()) > m.Bound:
						verdict = "unresolved"
					default:
						verdict = "unchanged"
					}
				}
				bound := "-"
				if m.bounded {
					bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
				}
				fmt.Printf("%-7s %-32s %-7s %14.6g %14.6g %+8.1f%% %7s  %s\n", ra.Workload, m.Name, m.Unit, va.Value, vb.Value, 100*worse, bound, verdict)
			}
		}
	}
	if pairs == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed past their bound", regressed)
	}
	return nil
}

// spread is the distance between a metric's extreme repetitions as a
// share of its median; 0 when it was measured once.
func (m metric) spread() float64 {
	if m.Reps < 2 || m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / math.Abs(m.Value)
}
