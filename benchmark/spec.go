package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// root is the checkout root: BENCHMARK.json lives there and everything
// the benchmark writes goes under root/benchmark. run.sh starts the
// binary from the root; `go run .` and `go test` start it one level
// down, in benchmark/.
var root = "."

func findRoot() {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
}

func benchPath(elem ...string) string {
	return filepath.Join(append([]string{root, "benchmark"}, elem...)...)
}

// topoKind is the topology a workload's callers talk to.
type topoKind int

const (
	// topoRouter: local.Start shards behind a client.Router.
	topoRouter topoKind = iota
	// topoIndex: one file-backed bmeh.Index, called in-process.
	topoIndex
	// topoServer: one serve.Run primary plus one replica behind
	// client.DialCluster.
	topoServer
)

// workload is one named traffic mix. Record counts and the ladder length
// are sized so that three set-ups, the warm-up, the window and the
// post-run checks of every workload fit the driver's time cap on a
// 2-core sandbox (README, "Sizes").
type workload struct {
	name    string
	topo    topoKind
	cow     bool // topoServer: serve.Config.COW
	preload int  // records stored by set-up
	callers int  // closed-loop callers in the window

	// Op mix in percent; the remainder is PUT. absentPct is the share of
	// GETs that ask for a key that was never stored.
	getPct, rangePct, delPct int
	absentPct                int
	zipf                     bool // GET keys by Zipf(1.1) rank, else uniform

	// ladderOps is how many ops of caller 0's stream the traced pass
	// replays at each rung: a fixed count, so its counters repeat.
	ladderOps int
}

var workloads = []*workload{
	{name: "get-hot.router", topo: topoRouter, preload: 100_000, callers: 32,
		getPct: 100, absentPct: 5, ladderOps: 20_000},
	{name: "get-cold.index", topo: topoIndex, preload: 2_000_000, callers: 2,
		getPct: 100, ladderOps: 20_000},
	{name: "put-durable.router", topo: topoRouter, preload: 100_000, callers: 32,
		ladderOps: 1_000},
	{name: "mixed.server.latched", topo: topoServer, preload: 100_000, callers: 32,
		getPct: 60, rangePct: 10, delPct: 10, zipf: true, ladderOps: 4_000},
	{name: "mixed.server.cow", topo: topoServer, cow: true, preload: 100_000, callers: 32,
		getPct: 60, rangePct: 10, delPct: 10, zipf: true, ladderOps: 4_000},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricSpec is one metric of BENCHMARK.json. Bound is set for
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the contract this program reports against.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// unit returns the unit BENCHMARK.json gives the named metric.
func (s *spec) unit(name string) (string, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}
