// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-exp all] [-scale 0.25] [-iters 60] [-seed 42]
//
// Experiment names are bench.Experiments' (fig1 fig2 fig3 table4 fig6 fig7
// fig8 fig9 fig10 table5 fig11 fig12 fig13 table6 scalability holistic
// ablations), or "all". Flags are validated up front: an unknown
// experiment name or a non-positive -scale or -iters is a usage error
// (exit code 2) before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vdtuner/internal/bench"
	"vdtuner/internal/workload"
)

// usageError prints the message and the flag summary, then exits 2 — the
// conventional "bad invocation" code — before any work starts.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	scale := flag.Float64("scale", 0.25, "dataset scale factor (1.0 = full synthetic size)")
	iters := flag.Int("iters", 60, "tuning iterations per method (paper: 200)")
	seed := flag.Int64("seed", 42, "random seed")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	flag.Parse()

	if *scale <= 0 {
		usageError("-scale must be positive, got %g", *scale)
	}
	if *iters <= 0 {
		usageError("-iters must be positive, got %d", *iters)
	}
	known := map[string]bool{"all": true}
	var names []string
	for _, e := range bench.Experiments {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			usageError("unknown experiment %q; known: %s", name, strings.Join(names, " "))
		}
		want[name] = true
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := bench.Options{Scale: workload.Scale(*scale), Iters: *iters, Seed: *seed}

	for _, e := range bench.Experiments {
		if !want["all"] && !want[e.Name] {
			continue
		}
		fmt.Printf("=== %s ===\n", e.Name)
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(*outDir + "/" + e.Name + ".txt")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		t0 := time.Now()
		if err := e.Run(w, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if f != nil {
			f.Close()
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.Name, time.Since(t0).Seconds())
	}
}
