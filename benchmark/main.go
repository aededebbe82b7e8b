// Command benchmark is the one benchmark of the whole stack: five named
// workloads, end-to-end metrics measured with tracing off, and a traced
// pass that replays each workload down a ladder of public entry points
// (client.Router → client.Client → null responder → wire codecs →
// bmeh.Index → pagestore) to say which layer the time goes to.
// BENCHMARK.json at the checkout root names the workloads and metrics;
// README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh [--runs N] [--out FILE] [--smoke]   # every workload
//	bash benchmark/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

const defaultSeed = 19860301

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly what the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// row is the run record: the result plus where, when and on what it was
// measured. One row per run is appended to benchmark/out/history.jsonl.
type row struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	Info     map[string]float64 `json:"info,omitempty"`    // printed, not gated
	Samples  map[string]int     `json:"samples,omitempty"` // ops completed in the window, by kind
	Failures []string           `json:"failures,omitempty"`

	Time       string  `json:"time"`
	Commit     string  `json:"commit"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	PageSize   int     `json:"kernel_page_size"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Callers    int     `json:"callers"`
	PoolSize   int     `json:"conns_per_node"`

	tally
}

var (
	theSpec   *spec
	theCommit string
)

func newRow(w *workload, seed uint64, window time.Duration, trace bool) *row {
	r := &row{
		Workload: w.name, Seed: seed, Trace: trace,
		Time: time.Now().UTC().Format(time.RFC3339), Commit: theCommit,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		PageSize: os.Getpagesize(), WindowS: window.Seconds(), WarmupS: warmup(window).Seconds(),
		Callers: w.callers, PoolSize: poolSize(),
	}
	r.Metrics = map[string]metricValue{}
	return r
}

// set records a metric BENCHMARK.json names; any other name is a bug in
// this program, not in the system under test.
func (r *row) set(name string, v float64) {
	unit, ok := theSpec.unit(name)
	if !ok {
		panic("metric " + name + " is not in BENCHMARK.json")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *row) finish() {
	r.Attempted, r.Failed, r.Failures = r.attempted, r.failed, r.notes
	r.Correct = r.failed == 0
}

// commit is `git rev-parse HEAD` with a -dirty suffix, or "unknown"
// outside a git checkout (the driver's).
func commit() string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		c += "-dirty"
	}
	return c
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendJSONL(path string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints a run for people: every metric by name with its unit,
// then the informational extras.
func report(r *row) {
	fmt.Printf("== %s seed=%d trace=%v window=%gs callers=%d conns/node=%d commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.WindowS, r.Callers, r.PoolSize, r.Commit)
	order := theSpec.EndToEnd
	if r.Trace {
		order = theSpec.PerLayer
	}
	for _, m := range order {
		fmt.Printf("%-34s %16.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Printf("  %-32s %16.4f\n", k, r.Info[k])
	}
	if lo, hi := r.Info["caller_ops_min"], r.Info["caller_ops_max"]; hi > 0 {
		health := "ok"
		if lo < 0.8*hi {
			health = "uneven: slowest caller completed under 80% of the fastest"
		}
		fmt.Printf("  generator: %d callers, %v ops completed by kind, %s\n", r.Callers, r.Samples, health)
	}
	fmt.Printf("%-34s %16.6f (%d failed of %d attempted)\n", "fail_ratio",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// runOne runs one workload once, prints it, appends it to the history
// and to out (if set).
func runOne(w *workload, seed uint64, window time.Duration, trace bool, scale int, out string) (*row, error) {
	var r *row
	var err error
	if trace {
		r, err = runTraced(w, seed, window, scale)
	} else {
		r, err = runUntraced(w, seed, window, scale)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	want := theSpec.EndToEnd
	if trace {
		want = theSpec.PerLayer
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
		}
	}
	report(r)
	if err := os.MkdirAll(benchPath("out"), 0o755); err != nil {
		return nil, err
	}
	if err := appendJSONL(benchPath("out", "history.jsonl"), r); err != nil {
		return nil, err
	}
	if out != "" {
		if err := appendJSONL(out, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func main() {
	findRoot()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
		runs    = flag.Int("runs", 1, "repeat the set of workloads this many times")
		out     = flag.String("out", "", "also append every run record to this file (input to compare)")
		smoke   = flag.Bool("smoke", false, "1/20 of the records and a 0.3 s window: checks the plumbing, measures nothing")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *runs, *out, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace bool, runs int, out string, smoke bool) error {
	var err error
	if theSpec, err = loadSpec(); err != nil {
		return err
	}
	// The load generator shares the machine with the servers it drives:
	// more runnable threads than CPUs measures the scheduler, not the
	// system. (Connections per node are capped the same way, in poolSize.)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	theCommit = commit()
	run := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		run = []*workload{w}
	}
	window, scale := time.Duration(seconds*float64(time.Second)), 1
	if seconds == 0 {
		window = time.Duration(theSpec.RunSeconds) * time.Second
	}
	if smoke {
		window, scale = 300*time.Millisecond, 20
	}
	failed := false
	var last *row
	for i := 0; i < runs; i++ {
		for _, w := range run {
			if last, err = runOne(w, seed, window, trace, scale, out); err != nil {
				return err
			}
			failed = failed || !last.Correct
		}
	}
	// The driver reads the last line of a single-workload run.
	buf, err := json.Marshal(last.result)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}
