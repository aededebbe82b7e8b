package main

// Smoke coverage for the paper-reproduction tool: the test binary re-execs
// itself as bmehbench (the idiom cmd/bmehserve's tests use) so flag
// parsing, exit codes and the formatted output are the real program's.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const childEnv = "BMEHBENCH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs bmehbench with args and returns stdout, stderr and the
// exit code.
func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("bmehbench %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-table", "2", "-n", "2000", "-q"},
			[]string{"Table 2:", "(N=2000)", "MDEH", "MEH-Tree", "BMEH-Tree", "(λ)", "(ρ)", "(α)", "(σ)"}},
		{[]string{"-cache", "-n", "2000", "-q"},
			[]string{"buffer pool", "N=2000", "none", "4096"}},
	} {
		stdout, stderr, code := runBench(t, tc.args...)
		if code != 0 {
			t.Errorf("%v: exit %d, stderr:\n%s", tc.args, code, stderr)
			continue
		}
		if stderr != "" {
			t.Errorf("%v: -q still wrote to stderr:\n%s", tc.args, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, stdout)
			}
		}
	}
}

// TestUsage: no experiment selected, and a flag of a retired system leg,
// both end in the usage text and exit 2 rather than a silent no-op.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-concurrent"}} {
		stdout, stderr, code := runBench(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-table") {
			t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", args, code, stdout, stderr)
		}
	}
}
