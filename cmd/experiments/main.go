// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-exp all] [-scale 0.25] [-iters 60] [-seed 42]
//
// Experiment names are bench.Experiments' (fig1 fig2 fig3 table4 fig6 fig7
// fig8 fig9 fig10 table5 fig11 fig12 fig13 table6 scalability holistic
// ablations), or "all".
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

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	scale := flag.Float64("scale", 0.25, "dataset scale factor (1.0 = full synthetic size)")
	iters := flag.Int("iters", 60, "tuning iterations per method (paper: 200)")
	seed := flag.Int64("seed", 42, "random seed")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := bench.Options{Scale: workload.Scale(*scale), Iters: *iters, Seed: *seed}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ranAny := false
	for _, e := range bench.Experiments {
		if !want["all"] && !want[e.Name] {
			continue
		}
		ranAny = true
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
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *exp)
		for _, e := range bench.Experiments {
			fmt.Fprintf(os.Stderr, " %s", e.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
