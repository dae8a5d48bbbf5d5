// Command stsl-bench regenerates every table and figure of the paper's
// evaluation at a chosen scale, printing paper-vs-measured tables and,
// optionally, writing each table as CSV and Fig 4 as PNGs.
//
// Usage:
//
//	stsl-bench -exp all -scale small
//	stsl-bench -exp table1 -scale paper -seed 7
//	stsl-bench -exp fig4 -out /tmp/fig4
//	stsl-bench -exp queue -horizon 20s -csv /tmp/tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/nn"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|fig4|queue|sweep|quantize|robustness|all")
		scale   = flag.String("scale", "small", "scale: tiny|small|paper")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		outDir  = flag.String("out", "", "directory for Fig-4 PNG output (optional)")
		horizon = flag.Duration("horizon", 10*time.Second, "virtual-time horizon for the queue ablation")
		csvDir  = flag.String("csv", "", "directory to also write each table as <exp>.csv (optional)")
	)
	flag.Parse()

	s, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-bench:", err)
	os.Exit(1)
}
