//go:build !race

// The full-size runs take seconds in a normal build and minutes under the
// race detector, which has nothing to find in the single-threaded
// simulations, so they run in normal builds only.

package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestReproductionGolden pins the published reproduction: full-size Table
// 2, the φ ablation, the §3 noise run and the bulk-against-insert rows
// must print exactly their sections of docs/results-full.txt, so a change
// to any reported figure (ρ's access accounting included) fails here. CI
// diffs the whole -all output against the same file.
func TestReproductionGolden(t *testing.T) {
	golden, err := os.ReadFile("../../docs/results-full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"table2":   {"-table", "2", "-q"},
		"ablation": {"-ablation", "-q"},
		"noise":    {"-noise", "-q"},
		"bulk":     {"-bulk", "-q"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := runBench(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if d := sectionDiff(string(golden), stdout); d != "" {
				t.Errorf("bmehbench %v differs from docs/results-full.txt: %s", args, d)
			}
		})
	}
}

// sectionDiff returns "" when out appears verbatim in golden, starting at
// the line out starts with, and otherwise describes the first line that
// differs.
func sectionDiff(golden, out string) string {
	first, _, _ := strings.Cut(out, "\n")
	i := strings.Index(golden, first+"\n")
	if out == "" || i < 0 {
		return fmt.Sprintf("no section starts with %q", first)
	}
	if strings.HasPrefix(golden[i:], out) {
		return ""
	}
	got, want := strings.Split(out, "\n"), strings.Split(golden[i:], "\n")
	for n := range got {
		w := ""
		if n < len(want) {
			w = want[n]
		}
		if got[n] != w {
			return fmt.Sprintf("line %d of the section:\n got %q\nwant %q", n+1, got[n], w)
		}
	}
	return "the section is cut short"
}
