package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// verdict judges one end-to-end metric on one workload: b against the
// base a. It is "unresolved" when either side's own run-to-run spread
// (interquartile distance over median) is wider than the bound — the
// runs cannot tell a change of that size from noise — "worse" when b's
// median is worse than a's by more than the bound, else "ok".
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	ratio := mb / ma
	switch {
	case spread(a) > bound || spread(b) > bound:
		return "unresolved", ratio
	case better == "lower" && ratio > 1+bound, better == "higher" && ratio < 1-bound:
		return "worse", ratio
	}
	return "ok", ratio
}

// readRows loads the untraced run records of a result file, grouped by
// workload and metric.
func readRows(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareMain prints one row per (end-to-end metric, workload) pair of
// two result files and returns the exit code: 1 if any pair is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare BASE.jsonl NEW.jsonl")
		return 2
	}
	sp, err := loadSpec()
	var a, b map[string]map[string][]float64
	if err == nil {
		a, err = readRows(args[0])
	}
	if err == nil {
		b, err = readRows(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	fmt.Printf("%-22s %-10s %5s  %-34s %-34s %8s  %s\n", "workload", "metric", "bound",
		"base median [q1, q3] (n)", "new median [q1, q3] (n)", "new/base", "verdict")
	code := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-22s %-10s missing from one file\n", w.Name, m.Name)
				code = 1
				continue
			}
			v, ratio := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-22s %-10s %5.2f  %-34s %-34s %8.3f  %s\n", w.Name, m.Name, m.Bound, quartileText(va), quartileText(vb), ratio, v)
		}
	}
	return code
}

func quartileText(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(v))
}
