// Command benchmark is this repository's benchmark: four workloads, the
// end-to-end and per-layer metrics BENCHMARK.json declares, and a traced
// layer ladder. README.md in this directory explains what each workload
// and metric is for.
//
//	go run ./benchmark -workload scan|point|mixed|tune -seed N [-seconds S] [-trace 1]
//	go run ./benchmark -compare a.json b.json
//
// Without -workload all four run. Inputs come from the seed; the program
// is driven only through its packages' exported functions, over real TCP
// where a server is involved. The last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// run is one invocation of one workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string

	res       *results
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	conns     atomic.Int32

	mu       sync.Mutex
	problems []string
}

// problem records a failed correctness check; any problem fails the run.
func (r *run) problem(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

var workloads = map[string]func(*run) error{
	"scan":  func(r *run) error { return r.runServing(scanSpec(r.scale)) },
	"point": func(r *run) error { return r.runServing(pointSpec(r.scale)) },
	"mixed": func(r *run) error { return r.runServing(mixedSpec(r.scale)) },
	"tune":  (*run).runTune,
}

// environment is what a result needs beside it to mean anything later.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Clients    int    `json:"clients"`
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown", Clients: clients}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// record is one workload's result as written to the result file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what an invocation leaves in benchmark/out and what
// -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []record    `json:"runs"`
}

// lastLine is the result in the shape the driver's contract fixes.
type lastLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]outValue `json:"metrics"`
}

type outValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and holds what it measured to the
// declaration: every declared end-to-end metric (traced: every per-layer
// metric the workload's probes measure, and none of the others) came out,
// once, finite and in its declared unit, and nothing undeclared came out.
func execute(d *decl, name string, seed int64, seconds, scale float64, trace bool, outDir string) (record, error) {
	fn, ok := workloads[name]
	if !ok {
		return record{}, fmt.Errorf("unknown workload %q", name)
	}
	r := &run{workload: name, seed: seed, seconds: seconds, scale: scale, trace: trace, outDir: outDir, res: newResults()}
	if trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return record{}, err
	}
	t0 := time.Now()
	if err := fn(r); err != nil {
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	if n := r.conns.Load(); n != 0 {
		r.problem("%d connections left open", n)
	}
	if r.failed.Load() > 0 {
		r.problem("%d of %d operations failed", r.failed.Load(), r.attempted.Load())
	}
	if trace {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := r.tr.write(path); err != nil {
			return record{}, err
		}
	}
	r.checkDeclared(d)
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Scale: scale, Trace: trace,
		Correct: len(r.problems) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Problems: r.problems, Metrics: r.res.byName}

	fmt.Printf("== %s  seed %d  %gs  scale %g  trace %v  (%.1fs wall)\n", name, seed, seconds, scale, trace, time.Since(t0).Seconds())
	for _, n := range r.res.order {
		m := r.res.byName[n]
		fmt.Printf("%-34s %14.6g %-7s", n, m.Value, m.Unit)
		if m.Reps > 1 {
			fmt.Printf(" min %.6g max %.6g over %d reps", m.Min, m.Max, m.Reps)
		}
		if m.Samples > 0 {
			fmt.Printf(" (%d samples)", m.Samples)
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %14d of %d\n", "failed ops", rec.Failed, rec.Attempted)
	for _, p := range r.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	return rec, nil
}

// checkDeclared compares what the run measured with BENCHMARK.json.
func (r *run) checkDeclared(d *decl) {
	for _, name := range r.res.twice {
		r.problem("metric %s was set more than once", name)
	}
	declared := map[string]metricDecl{}
	for _, m := range d.EndToEnd {
		declared[m.Name] = m
	}
	for _, m := range d.PerLayer {
		declared[m.Name] = m
	}
	for _, name := range r.res.order {
		got := r.res.byName[name]
		m, ok := declared[name]
		switch {
		case !ok:
			r.problem("metric %s is not declared in BENCHMARK.json", name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			r.problem("metric %s is not finite", name)
		case got.Unit != m.Unit:
			r.problem("metric %s has unit %q, declared %q", name, got.Unit, m.Unit)
		}
	}
	if !r.trace {
		for _, m := range d.EndToEnd {
			if got, ok := r.res.byName[m.Name]; !ok || got.Value == 0 {
				r.problem("end-to-end metric %s was not measured or is 0", m.Name)
			}
		}
		return
	}
	for _, m := range d.PerLayer {
		_, ok := r.res.byName[m.Name]
		if want := measuredOn(m.Name, r.workload); ok != want {
			r.problem("layer metric %s: measured %v, but layerOnly says %v on %s", m.Name, ok, want, r.workload)
		}
	}
}

// lastLine is the record in the driver's shape: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one, 0 for a layer
// metric the workload does not measure.
func (rec record) lastLine(d *decl) lastLine {
	declared := d.EndToEnd
	if rec.Trace {
		declared = d.PerLayer
	}
	out := lastLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]outValue{}}
	for _, m := range declared {
		out.Metrics[m.Name] = outValue{rec.Metrics[m.Name].Value, m.Unit}
	}
	return out
}

func main() {
	workload := flag.String("workload", "", "scan, point, mixed or tune; empty runs all four")
	seed := flag.Int64("seed", 1, "every input is generated from it")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: spans, layer ladder, per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace, compare bool, args []string) error {
	d, err := loadDecl()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(d, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(d.RunSeconds)
	}
	env := readEnvironment()
	if env.NProc < clients {
		fmt.Printf("warning: %d CPUs for %d client goroutines; numbers will not compare with a %d-core baseline\n", env.NProc, clients, clients)
	}
	names := []string{workload}
	tag := workload
	if workload == "" {
		names, tag = names[:0], "all"
		for _, w := range d.Workloads {
			names = append(names, w.Name)
		}
	}
	if trace {
		tag += "-trace"
	}
	outDir := filepath.Join("benchmark", "out")
	file := resultFile{Env: env}
	var last lastLine
	for _, name := range names {
		rec, err := execute(d, name, seed, seconds, 1, trace, outDir)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, rec)
		last = rec.lastLine(d)
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", tag, seed)), raw, 0o666); err != nil {
		return err
	}
	// The contract's last line: the (last) workload's declared metrics.
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, rec := range file.Runs {
		if !rec.Correct {
			return fmt.Errorf("%s: incorrect (see INCORRECT lines above)", rec.Workload)
		}
	}
	return nil
}
