package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation: out-of-range flags must be usage errors (exit code
// 2, message and usage on stderr) before any dataset is generated.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "vdtuner")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vdtuner: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"iters-zero", []string{"-iters", "0"}},
		{"iters-negative", []string{"-iters", "-3"}},
		{"scale-zero", []string{"-scale", "0"}},
		{"scale-negative", []string{"-scale", "-1"}},
		{"recall-floor-negative", []string{"-recall-floor", "-0.1"}},
		{"recall-floor-one", []string{"-recall-floor", "1"}},
		{"dataset", []string{"-dataset", "sift"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("vdtuner %v did not exit with an error (output %q)", tc.args, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("vdtuner %v exited %d, want usage error 2 (output %q)", tc.args, code, out)
			}
			if !strings.Contains(string(out), "vdtuner:") || !strings.Contains(string(out), "Usage") ||
				strings.Contains(string(out), "generating") {
				t.Fatalf("want a diagnostic and usage text before any work, got %q", out)
			}
		})
	}
}
