// Command vdtuner tunes the built-in vector data management engine on a
// named workload and reports the Pareto front and the recommended
// configuration. Flags are validated up front: a value outside its range
// is a usage error (exit code 2) before any dataset is generated.
//
// Usage:
//
//	vdtuner [-dataset glove] [-iters 60] [-scale 0.25] [-seed 42]
//	        [-recall-floor 0] [-cost-aware] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"vdtuner/internal/core"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// usageError prints the message and the flag summary, then exits 2 — the
// conventional "bad invocation" code — before any work starts.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vdtuner: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	dataset := flag.String("dataset", "glove", "workload: glove, keyword, geo, arxiv, deep")
	iters := flag.Int("iters", 60, "tuning iterations (paper: 200)")
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	seed := flag.Int64("seed", 42, "random seed")
	recallFloor := flag.Float64("recall-floor", 0, "optimize speed subject to recall > floor (0 = balance both)")
	costAware := flag.Bool("cost-aware", false, "optimize cost-effectiveness (QP$) instead of QPS")
	saveKB := flag.String("save", "", "write the tuning knowledge base (JSON) to this path")
	loadKB := flag.String("load", "", "bootstrap from a knowledge base written by -save")
	verbose := flag.Bool("v", false, "print every iteration")
	flag.Parse()

	if *iters <= 0 {
		usageError("-iters must be positive, got %d", *iters)
	}
	if *scale <= 0 {
		usageError("-scale must be positive, got %g", *scale)
	}
	if *recallFloor < 0 || *recallFloor >= 1 {
		usageError("-recall-floor must be in [0, 1), got %g", *recallFloor)
	}
	spec, err := pickDataset(*dataset, workload.Scale(*scale))
	if err != nil {
		usageError("%v", err)
	}
	fmt.Printf("generating %s (n=%d, dim=%d) ...\n", spec.Name, spec.N, spec.Dim)
	ds, err := workload.Load(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	def := vdms.Evaluate(ds, vdms.DefaultConfig())
	fmt.Printf("default config: QPS %.1f, recall %.4f, memory %.2f GiB-eq\n\n",
		def.QPS, def.Recall, core.MemGiB(def.MemoryBytes))

	var bootstrap []core.Observation
	if *loadKB != "" {
		bootstrap, err = core.LoadKnowledgeBase(*loadKB)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("bootstrapped %d observations from %s\n", len(bootstrap), *loadKB)
	}
	tn := core.New(core.Options{
		Seed:        *seed,
		RecallFloor: *recallFloor,
		CostAware:   *costAware,
		Bootstrap:   bootstrap,
	})
	// The paper's Table VI on the real clock: where the loop's wall time
	// goes, beside the replay time the simulated clock charged.
	var nextT, evalT, observeT time.Duration
	var replaySec float64
	for i := 0; i < *iters; i++ {
		t0 := time.Now()
		cfg := tn.Next()
		t1 := time.Now()
		res := vdms.Evaluate(ds, cfg)
		t2 := time.Now()
		tn.Observe(cfg, res)
		nextT += t1.Sub(t0)
		evalT += t2.Sub(t1)
		observeT += time.Since(t2)
		replaySec += res.ReplaySeconds
		if *verbose {
			status := fmt.Sprintf("QPS %8.1f recall %.4f", res.QPS, res.Recall)
			if res.Failed {
				status = "FAILED: " + res.FailReason
			}
			fmt.Printf("iter %3d  %-9s  %s\n", i+1, cfg.IndexType, status)
		}
	}

	if *saveKB != "" {
		if err := tn.SaveKnowledgeBase(*saveKB); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("knowledge base saved to %s\n", *saveKB)
	}

	front := tn.ParetoFront()
	sort.Slice(front, func(i, j int) bool { return front[i].ObjA > front[j].ObjA })
	fmt.Printf("\nPareto front (%d configurations):\n", len(front))
	objName := "QPS"
	if *costAware {
		objName = "QP$"
	}
	for _, o := range front {
		fmt.Printf("  %-9s %s %10.1f  recall %.4f  mem %.2f GiB-eq\n",
			o.Config.IndexType, objName, o.ObjA, o.Result.Recall, core.MemGiB(o.Result.MemoryBytes))
	}

	floor := *recallFloor
	if floor == 0 {
		floor = def.Recall - 1e-9
	}
	if best, ok := tn.BestUnderRecall(floor); !ok {
		fmt.Printf("\nno configuration found with recall > %.4f\n", floor)
	} else {
		fmt.Printf("\nrecommended configuration (recall > %.4f):\n", floor)
		printConfig(best.Config)
		fmt.Printf("  -> %s %.1f (default %.1f), recall %.4f (default %.4f)\n",
			objName, best.ObjA, def.QPS, best.Result.Recall, def.Recall)
		fmt.Printf("remaining index types: %v, abandoned: %v\n", tn.Remaining(), tn.Abandoned())
	}
	fmt.Printf("\ntuning time over %d iterations: Next %.2fs, Evaluate %.2fs, Observe %.2fs wall clock; simulated replay %.0fs\n",
		*iters, nextT.Seconds(), evalT.Seconds(), observeT.Seconds(), replaySec)
}

func pickDataset(name string, scale workload.Scale) (workload.Spec, error) {
	switch name {
	case "glove":
		return workload.GloVeLike(scale), nil
	case "keyword":
		return workload.KeywordLike(scale), nil
	case "geo":
		return workload.GeoLike(scale), nil
	case "arxiv":
		return workload.ArxivLike(scale), nil
	case "deep":
		return workload.DeepImageLike(scale), nil
	default:
		return workload.Spec{}, fmt.Errorf("unknown dataset %q (want glove, keyword, geo, arxiv, deep)", name)
	}
}

// printConfig prints the index type and every knob it owns, in the knob
// table's order.
func printConfig(cfg vdms.Config) {
	fmt.Printf("  %-24s %v\n", "index_type", cfg.IndexType)
	for i := range vdms.Knobs {
		if k := &vdms.Knobs[i]; k.OwnedBy(cfg.IndexType) {
			fmt.Printf("  %-24s %.5g\n", k.Name, k.Get(&cfg))
		}
	}
}
