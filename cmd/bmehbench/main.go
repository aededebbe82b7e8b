// Command bmehbench regenerates the paper's evaluation (Otoo, "Balanced
// Multidimensional Extendible Hash Tree", PODS 1986): Tables 2-4, the
// directory-growth Figures 6-7, the Theorem 4 range-cost experiment, and
// the extra ablations documented in DESIGN.md.
//
// Usage:
//
//	bmehbench -all                 # everything at full size (N=40,000)
//	bmehbench -table 3             # one table
//	bmehbench -figure 6            # one growth figure
//	bmehbench -rangecost           # Theorem 4 experiment
//	bmehbench -ablation            # BMEH node-size (φ) sweep
//	bmehbench -noise               # §3 degeneration experiment
//	bmehbench -bulk                # BulkLoad's directory against Insert's
//	bmehbench -figure 6 -csv       # growth curve as CSV
//	bmehbench -table 2 -n 8000     # scaled-down run
//
// Throughput and latency of the serving stack are measured by
// benchmark/ (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bmeh/internal/sim"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce paper table N (2, 3 or 4)")
		figure    = flag.Int("figure", 0, "reproduce paper figure N (6 or 7)")
		rangeCost = flag.Bool("rangecost", false, "run the Theorem 4 range-cost experiment")
		ablation  = flag.Bool("ablation", false, "run the BMEH-tree node-size (φ) sweep")
		noise     = flag.Bool("noise", false, "run the §3 degeneration experiment (noise-burst keys)")
		bulk      = flag.Bool("bulk", false, "compare BulkLoad's directory with Insert's on Tables 2-4's workloads")
		asCSV     = flag.Bool("csv", false, "emit figures as CSV for external plotting")
		all       = flag.Bool("all", false, "run every table, figure and extra experiment")
		n         = flag.Int("n", 40000, "keys to insert per run (paper: 40000)")
		measure   = flag.Int("measure", 4000, "tail window for averaged measures (paper: 4000)")
		every     = flag.Int("every", 1000, "growth-curve sampling interval (figures)")
		seed      = flag.Int64("seed", 19860301, "workload seed")
		quiet     = flag.Bool("q", false, "suppress progress messages")
	)
	flag.Parse()

	progress := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	start := time.Now()
	ran := false

	runTable := func(num int) {
		ran = true
		spec, err := sim.TableSpecFor(num)
		fail(err)
		tr, err := sim.RunTable(spec, *n, *measure, *seed, func(s sim.Scheme, b int) {
			progress("table %d: %v b=%d...\n", num, s, b)
		})
		fail(err)
		tr.Format(os.Stdout)
		fmt.Println()
	}
	runFigure := func(num int) {
		ran = true
		spec, err := sim.FigureSpecFor(num)
		fail(err)
		fr, err := sim.RunFigure(spec, *n, *every, *seed, func(s sim.Scheme) {
			progress("figure %d: %v...\n", num, s)
		})
		fail(err)
		if *asCSV {
			fr.FormatCSV(os.Stdout)
		} else {
			fr.Format(os.Stdout)
		}
		fmt.Println()
	}
	runRange := func() {
		ran = true
		progress("range-cost experiment (Theorem 4)...\n")
		pts, err := sim.RunRange(sim.Uniform, 2, 16, *n, 50, *seed)
		fail(err)
		sim.FormatRange(os.Stdout, pts)
		fmt.Println()
	}
	runAblation := func() {
		ran = true
		for _, dist := range []sim.Distribution{sim.Uniform, sim.Normal} {
			progress("φ sweep (%v)...\n", dist)
			rows, err := sim.RunPhiAblation(dist, 2, 8, *n, *seed)
			fail(err)
			fmt.Printf("(%v keys, d=2, b=8, N=%d)\n", dist, *n)
			sim.FormatAblation(os.Stdout, rows)
			fmt.Println()
		}
	}
	runNoise := func() {
		ran = true
		progress("§3 degeneration experiment...\n")
		nn := *n
		if nn > 20000 {
			nn = 20000 // the flat schemes overflow long before this
		}
		pts, err := sim.RunNoise(nn, nn/16, 50, 16, *seed)
		fail(err)
		sim.FormatNoise(os.Stdout, pts)
		fmt.Println()
	}
	runBulk := func() {
		ran = true
		rows, err := sim.RunBulk(*n, *seed, func(cfg sim.Config) {
			progress("bulk: %d-d %v ξ=%v b=%d...\n", cfg.Dims, cfg.Dist, cfg.Params().Xi, cfg.Capacity)
		})
		fail(err)
		sim.FormatBulk(os.Stdout, *n, rows)
		fmt.Println()
	}

	switch {
	case *all:
		for _, t := range sim.Tables {
			runTable(t.Number)
		}
		for _, f := range sim.Figures {
			runFigure(f.Number)
		}
		runRange()
		runAblation()
		runNoise()
		runBulk()
	default:
		if *table != 0 {
			runTable(*table)
		}
		if *figure != 0 {
			runFigure(*figure)
		}
		if *rangeCost {
			runRange()
		}
		if *ablation {
			runAblation()
		}
		if *noise {
			runNoise()
		}
		if *bulk {
			runBulk()
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	progress("done in %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehbench:", err)
		os.Exit(1)
	}
}
