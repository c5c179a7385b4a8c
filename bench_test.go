// Package vdtuner's root benchmarks: BenchmarkExperiments regenerates
// every experiment of bench.Experiments (the paper's tables and figures)
// end to end at a reduced scale; cmd/experiments runs the same list at
// configurable scale with full printed output.
//
// Run with: go test -bench=. -benchmem
package vdtuner

import (
	"io"
	"testing"

	"vdtuner/internal/bench"
)

// benchOpts keeps the per-iteration cost of macro-benchmarks bounded.
func benchOpts(seed int64) bench.Options {
	return bench.Options{Scale: 0.1, Iters: 10, Seed: seed}
}

// BenchmarkExperiments runs every experiment of bench.Experiments as a
// sub-benchmark named after it; experiment i runs at seed i+1.
func BenchmarkExperiments(b *testing.B) {
	for i, e := range bench.Experiments {
		i, e := i, e // go.mod says go 1.21: loop variables are shared
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := e.Run(io.Discard, benchOpts(int64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchAfterDeletes is the churn benchmark: bulk-load a live
// collection, delete half the corpus, compact, and measure the bounded
// post-churn search path. It fails if compaction does not shrink the
// per-query scanned work below the pre-delete level.
func BenchmarkSearchAfterDeletes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Churn(io.Discard, benchOpts(18))
		if err != nil {
			b.Fatal(err)
		}
		if res.WorkAfter >= res.WorkBefore {
			b.Fatalf("post-churn scan work %d >= pre-delete %d", res.WorkAfter, res.WorkBefore)
		}
	}
}
