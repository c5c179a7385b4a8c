package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation: out-of-range flags must be usage errors (exit code
// 2, message and usage on stderr) before any experiment runs.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"scale-zero", []string{"-scale", "0"}},
		{"scale-negative", []string{"-scale", "-1"}},
		{"iters-zero", []string{"-iters", "0"}},
		{"iters-negative", []string{"-iters", "-3"}},
		{"exp-unknown", []string{"-exp", "bogus"}},
		{"exp-one-unknown", []string{"-exp", "fig1,bogus"}},
		{"exp-empty", []string{"-exp", ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("experiments %v did not exit with an error (output %q)", tc.args, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("experiments %v exited %d, want usage error 2 (output %q)", tc.args, code, out)
			}
			if !strings.Contains(string(out), "experiments:") || !strings.Contains(string(out), "Usage") ||
				strings.Contains(string(out), "===") {
				t.Fatalf("want a diagnostic and usage text before any work, got %q", out)
			}
		})
	}
}
