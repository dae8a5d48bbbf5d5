// Command stsl-bench regenerates every table and figure of the paper's
// evaluation at a chosen scale, printing paper-vs-measured tables. With
// --live it instead measures the real-concurrency cluster runtime:
// training throughput (steps/sec) versus concurrent end-system count
// over the wire protocol, so the perf trajectory tracks the deployment
// path and not just the virtual-time simulator.
//
// Live mode also powers the per-PR BENCH snapshots: -json writes the
// measured grid as a schema-stable (stsl-bench/1) report, -compare
// gates a fresh run against a committed baseline and exits non-zero on
// any cell whose throughput regressed past -tolerance, and -validate
// checks an existing report parses. All live grid cells share one
// telemetry registry (reset between cells) — a full grid leaks no
// goroutines or listeners.
//
// Usage:
//
//	stsl-bench -exp all -scale small
//	stsl-bench -exp table1 -scale paper -seed 7
//	stsl-bench -exp fig4 -out /tmp/fig4
//	stsl-bench -live -scale tiny -steps 16
//	stsl-bench -live -clients 8 -policy fair-rr -coalesce 4
//	stsl-bench -live -clients 8 -workers 1,2,4 -analysis analysis.md
//	stsl-bench -live -clients 1,4,8 -policy fifo,staleness -json BENCH.json -overhead
//	stsl-bench -live -compare BENCH.json -tolerance 0.1
//	stsl-bench -analysis analysis.md -json BENCH.json
//	stsl-bench -compare OLD.json -against NEW.json
//	stsl-bench -validate BENCH.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/nn"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|fig4|queue|sweep|quantize|robustness|all")
		scale     = flag.String("scale", "small", "scale: tiny|small|paper")
		seed      = flag.Uint64("seed", 42, "experiment seed")
		outDir    = flag.String("out", "", "directory for Fig-4 PNG output (optional)")
		horizon   = flag.Duration("horizon", 10*time.Second, "virtual-time horizon for the queue ablation")
		csvDir    = flag.String("csv", "", "directory to also write each table as <exp>.csv (optional)")
		live      = flag.Bool("live", false, "benchmark the live cluster runtime instead of the paper experiments")
		steps     = flag.Int("steps", 16, "per-client batches for the --live benchmark")
		clients   = flag.String("clients", "", "end-system counts for the --live benchmark, comma-separated (default 1,4,16)")
		policy    = flag.String("policy", "fifo", "queue policies for the --live benchmark, comma-separated: fifo|staleness|fair-rr|sync-rounds")
		coalesce  = flag.String("coalesce", "", "micro-batch coalescing caps for the --live benchmark, comma-separated (default 1,2,4,8)")
		workers   = flag.String("workers", "", "data-parallel replica counts for the --live benchmark, comma-separated (default 1)")
		dtypes    = flag.String("dtype", "", "wire precisions for the --live benchmark, comma-separated: float64|float32 (default float64)")
		jsonOut   = flag.String("json", "", "write the --live grid as a schema-stable JSON report to this path")
		analysis  = flag.String("analysis", "", "write a human-readable markdown analysis of the bench report to this path (with --live: the fresh grid; otherwise reads the report at -json)")
		overhead  = flag.Bool("overhead", false, "also measure the telemetry overhead (bare vs instrumented) at the largest client count")
		compare   = flag.String("compare", "", "run the --live grid matching this baseline report and fail on throughput regressions")
		against   = flag.String("against", "", "with -compare: diff the baseline against this already-measured report instead of re-running the grid")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional throughput drop per grid cell for -compare")
		repeats   = flag.Int("repeats", 0, "measure each --live cell this many times, keep the fastest (0 = once, or 5 under -compare)")
		validate  = flag.String("validate", "", "parse and validate an existing bench JSON report, then exit")
	)
	flag.Parse()

	if *validate != "" {
		r, err := readBench(*validate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stsl-bench: %s ok — schema %s, %d rows (scale=%s steps=%d transport=%s)\n",
			*validate, r.Schema, len(r.Rows), r.Scale, r.StepsPerClient, r.Transport)
		return
	}

	if *analysis != "" && !*live {
		// Offline analysis of an existing report: -json names the input.
		if *jsonOut == "" {
			fatal(fmt.Errorf("-analysis without --live needs -json naming the report to read"))
		}
		r, err := readBench(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*analysis, []byte(expt.AnalyzeBench(r)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("stsl-bench: analysis of %s written to %s\n", *jsonOut, *analysis)
		return
	}

	if *compare != "" && *against != "" {
		// Pure file-vs-file gate: no measurement, fully deterministic —
		// what CI uses to prove the >10% rule trips.
		if err := compareFiles(*compare, *against, *tolerance); err != nil {
			fatal(err)
		}
		return
	}

	s, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	if *live {
		if err := runLive(s, *seed, *steps, *clients, *policy, *coalesce, *workers, *dtypes,
			*jsonOut, *analysis, *overhead, *compare, *tolerance, *repeats); err != nil {
			fatal(err)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	writeCSV := func(name, csv string) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*csvDir, name+".csv"), []byte(csv), 0o644)
	}

	run("table1", func() error {
		res, err := expt.RunTableI(s, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		return writeCSV("table1", res.Table.CSV())
	})
	run("fig1", func() error {
		res, err := expt.RunFig1(s, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		if err := writeCSV("fig1", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("fig2", func() error {
		res, err := expt.RunFig2(s, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		for i, m := range res.ClientCounts {
			fmt.Printf("  M=%d per-client steps: %v\n", m, res.StepsPerClient[i])
		}
		fmt.Println()
		if err := writeCSV("fig2", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("fig3", func() error {
		res, err := expt.RunFig3(nn.PaperCNNConfig{}, *seed)
		if err != nil {
			return err
		}
		fmt.Println("Fig 3 — the paper's CNN (exact architecture)")
		fmt.Println(res.Summary)
		for cut := 0; cut < len(res.CutShapes); cut++ {
			fmt.Printf("  cut=%d transmits activations of shape %v\n", cut, res.CutShapes[cut])
		}
		fmt.Println()
		return nil
	})
	run("fig4", func() error {
		res, err := expt.RunFig4(s, *seed, 8, *outDir)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		fmt.Printf("  edge-leak monotone (orig > conv > pooled) for %.0f%% of images\n\n",
			res.MonotoneFraction*100)
		if *outDir != "" {
			fmt.Printf("  PNGs written to %s\n\n", *outDir)
		}
		if err := writeCSV("fig4", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("queue", func() error {
		res, err := expt.RunQueueAblation(s, *seed, nil, *horizon)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		if err := writeCSV("queue", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("sweep", func() error {
		res, err := expt.RunCutSweep(s, *seed, nil, nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		if err := writeCSV("sweep", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("quantize", func() error {
		res, err := expt.RunQuantizeAblation(s, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		if err := writeCSV("quantize", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
	run("robustness", func() error {
		res, err := expt.RunRobustness(s, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Table.String())
		if err := writeCSV("robustness", res.Table.CSV()); err != nil {
			return err
		}
		return nil
	})
}

// runLive measures live-cluster training throughput — steps/sec versus
// concurrent end-system count, queue policy, and micro-batch coalescing
// cap — over net.Pipe with full wire encode/decode, via the shared
// expt.RunLiveBench harness (one telemetry registry across all cells).
func runLive(s expt.Scale, seed uint64, steps int, clients, policy, coalesce, workers, dtypes, jsonOut, analysis string, overhead bool, compare string, tolerance float64, repeats int) error {
	clientCounts, err := parseIntList(clients, []int{1, 4, 16})
	if err != nil {
		return fmt.Errorf("-clients: %w", err)
	}
	coalesceCaps, err := parseIntList(coalesce, []int{1, 2, 4, 8})
	if err != nil {
		return fmt.Errorf("-coalesce: %w", err)
	}
	workerCounts, err := parseIntList(workers, []int{1})
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	policies := strings.Split(policy, ",")
	dtypeList := []string{"float64"}
	if dtypes != "" {
		dtypeList = strings.Split(dtypes, ",")
	}

	var baseline *expt.BenchReport
	if compare != "" {
		baseline, err = readBench(compare)
		if err != nil {
			return err
		}
		// The gate re-measures exactly the baseline's grid so every
		// cell is comparable, with best-of-N per cell so scheduler
		// noise on short cells cannot masquerade as a regression.
		if s, err = expt.ScaleByName(baseline.Scale); err != nil {
			return err
		}
		steps = baseline.StepsPerClient
		if repeats == 0 {
			repeats = 5
		}
	}

	fmt.Printf("live cluster throughput — scale=%s, %d steps/client, wire framing over net.Pipe\n\n",
		s.Name, steps)
	fmt.Printf("%8s %12s %10s %9s %9s %10s %12s %12s %12s %12s %10s\n",
		"clients", "policy", "coalesce", "workers", "dtype", "telem", "steps/s", "wall", "p95 wait", "maxdepth", "loss")
	cfg := expt.LiveBenchConfig{
		Scale: s, Seed: seed, Steps: steps,
		Clients: clientCounts, Policies: policies, Coalesce: coalesceCaps,
		Workers:         workerCounts,
		DTypes:          dtypeList,
		MeasureOverhead: overhead,
		Repeats:         repeats,
		Progress: func(r expt.BenchRow) {
			w := r.Workers
			if w < 1 {
				w = 1
			}
			dt := r.DType
			if dt == "" {
				dt = "float64"
			}
			fmt.Printf("%8d %12s %10d %9d %9s %10v %12.1f %12.3fs %11.1fms %12d %10.4f\n",
				r.Clients, r.Policy, r.Coalesce, w, dt, r.Telemetry, r.StepsPerSec,
				r.WallSeconds, r.WaitP95*1e3, r.MaxQueueDepth, r.FinalLoss)
		},
	}
	if baseline != nil {
		cfg.Clients, cfg.Policies, cfg.Coalesce, cfg.Workers, cfg.DTypes = benchGrid(baseline)
		cfg.MeasureOverhead = baseline.Overhead != nil
	}
	report, err := expt.RunLiveBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	if report.Overhead != nil {
		fmt.Printf("\ntelemetry overhead at %d clients: %.1f → %.1f steps/s (%.1f%%)\n",
			report.Overhead.Clients, report.Overhead.BareStepsPerSec,
			report.Overhead.InstrumentedStepsPerSec, report.Overhead.Fraction*100)
	}

	if jsonOut != "" {
		raw, err := expt.MarshalBenchJSON(report)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonOut)
	}
	if analysis != "" {
		if err := os.WriteFile(analysis, []byte(expt.AnalyzeBench(report)), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nanalysis written to %s\n", analysis)
	}
	if baseline != nil {
		regs, err := expt.CompareBench(baseline, report, tolerance)
		if err != nil {
			return err
		}
		if len(regs) > 0 {
			fmt.Printf("\nTHROUGHPUT REGRESSIONS vs %s (tolerance %.0f%%):\n", compare, tolerance*100)
			for _, r := range regs {
				fmt.Printf("  %s\n", r)
			}
			return fmt.Errorf("%d grid cell(s) regressed past %.0f%%", len(regs), tolerance*100)
		}
		fmt.Printf("\nno regressions vs %s (tolerance %.0f%%)\n", compare, tolerance*100)
	}
	return nil
}

// benchGrid recovers the unique grid axes of a baseline report, in
// first-seen order, so -compare re-measures exactly the same cells.
// Rows predating the workers axis carry 0, which was (and keys as) 1;
// rows predating the dtype axis carry "", which keys as "float64".
func benchGrid(r *expt.BenchReport) (clients []int, policies []string, coalesce, workers []int, dtypes []string) {
	seenC, seenP, seenB, seenW := map[int]bool{}, map[string]bool{}, map[int]bool{}, map[int]bool{}
	seenD := map[string]bool{}
	for _, row := range r.Rows {
		if !seenC[row.Clients] {
			seenC[row.Clients] = true
			clients = append(clients, row.Clients)
		}
		if !seenP[row.Policy] {
			seenP[row.Policy] = true
			policies = append(policies, row.Policy)
		}
		if !seenB[row.Coalesce] {
			seenB[row.Coalesce] = true
			coalesce = append(coalesce, row.Coalesce)
		}
		w := row.Workers
		if w < 1 {
			w = 1
		}
		if !seenW[w] {
			seenW[w] = true
			workers = append(workers, w)
		}
		dt := row.DType
		if dt == "" {
			dt = "float64"
		}
		if !seenD[dt] {
			seenD[dt] = true
			dtypes = append(dtypes, dt)
		}
	}
	return clients, policies, coalesce, workers, dtypes
}

// compareFiles gates an already-measured report against a baseline,
// with no fresh measurement: exit non-zero when any shared grid cell's
// throughput dropped past the tolerance.
func compareFiles(oldPath, newPath string, tolerance float64) error {
	old, err := readBench(oldPath)
	if err != nil {
		return err
	}
	cur, err := readBench(newPath)
	if err != nil {
		return err
	}
	regs, err := expt.CompareBench(old, cur, tolerance)
	if err != nil {
		return err
	}
	if len(regs) > 0 {
		fmt.Printf("THROUGHPUT REGRESSIONS %s → %s (tolerance %.0f%%):\n", oldPath, newPath, tolerance*100)
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
		return fmt.Errorf("%d grid cell(s) regressed past %.0f%%", len(regs), tolerance*100)
	}
	fmt.Printf("stsl-bench: no regressions %s → %s (tolerance %.0f%%)\n", oldPath, newPath, tolerance*100)
	return nil
}

// readBench loads and validates a bench JSON report from disk.
func readBench(path string) (*expt.BenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return expt.ValidateBenchJSON(raw)
}

// parseIntList parses "1,4,8" into ints, falling back to def when s is
// empty.
func parseIntList(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-bench:", err)
	os.Exit(1)
}
