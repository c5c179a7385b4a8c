package bench

import "io"

// Experiment is one table or figure of the evaluation under the name
// cmd/experiments' -exp flag and the root BenchmarkExperiments know it by.
type Experiment struct {
	Name string
	Run  func(io.Writer, Options) error
}

// Experiments is the one list of experiments, in the order "all" runs
// them: the paper's figures and tables, then the two beyond it. The CLI
// and the root benchmark are loops over it.
var Experiments = []Experiment{
	{"fig1", printed(Figure1)},
	{"fig2", printed(Figure2)},
	{"fig3", func(w io.Writer, o Options) error {
		_, _, err := Figure3(w, o)
		return err
	}},
	{"table4", printed(Table4)},
	{"fig6", printed(Figure6)},
	{"fig7", printed(Figure7)},
	{"fig8", printed(Figure8)},
	{"fig9", printed(Figure9)},
	{"fig10", printed(Figure10)},
	{"table5", printed(Table5)},
	{"fig11", printed(Figure11)},
	{"fig12", printed(Figure12)},
	{"fig13", printed(Figure13)},
	{"table6", printed(Table6)},
	{"scalability", printed(Scalability)},
	{"holistic", printed(HolisticVsIndividual)},
	{"ablations", printed(DesignAblations)},
}

// printed keeps what an experiment prints and drops the data it returns
// for programmatic checks.
func printed[T any](f func(io.Writer, Options) (T, error)) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error {
		_, err := f(w, o)
		return err
	}
}
