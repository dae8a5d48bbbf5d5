// Command perfbench is the repository benchmark. It runs one workload
// against a live cluster.Server over loopback TCP, checks every reply,
// and prints the metrics that BENCHMARK.json names: the end-to-end
// metrics on an untraced run (-trace 0), the per-layer metrics on a
// traced run (-trace 1). The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; a
// human-readable report goes to standard error.
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload replay-small --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs every workload in turn and prints one
// result line for each.
//
// The compare subcommand reads saved runs of a parent and a change and
// applies the paired decision rule (see compare.go); pair.sh makes those
// runs on two checkouts and calls it. The workloads subcommand lists the
// workload names:
//
//	bash perfbench/run.sh compare -parent DIR -change DIR -json out.json -md out.md
//	bash perfbench/run.sh workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from. It is the one list of metric names and units.
const specPath = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "workloads":
			os.Exit(listWorkloads())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json); empty runs every workload")
	seed := fs.Uint64("seed", 1, "input seed: the data and the recorded activations derive from it")
	seconds := fs.Int("seconds", 0, "length of the measured window in seconds (0 = BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(spec, *seed, *seconds, *trace)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	var m *measurement
	if *trace == 1 {
		m, err = runTraced(w, *seed, *seconds)
	} else {
		m, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	res, problems := buildResult(m, want, *trace == 1)
	m.problems = append(m.problems, problems...)
	res.Correct = len(m.problems) == 0 && m.failed == 0
	printReport(os.Stderr, w, *seed, m, want)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload of the spec with the same arguments, one
// after another, each in a process of its own so that each reports its
// own peak memory. Each prints its report and result line; runAll fails
// when any of them does.
func runAll(spec *benchSpec, seed uint64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	code := 0
	for _, w := range spec.Workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// listWorkloads prints the spec's workload names, one a line.
func listWorkloads() int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, w := range spec.Workloads {
		fmt.Println(w.Name)
	}
	return 0
}

// buildResult projects the measured values onto the spec's metric list.
// An end-to-end metric that was not measured, a measured value that is
// not finite, or a measured name the spec does not list is a problem:
// each would hide a defect in the benchmark itself. A per-layer metric
// the workload does not exercise (the pool's sync metrics on a
// single-worker run, a layer index the model does not have) reads 0.
func buildResult(m *measurement, want []metricSpec, perLayer bool) (result, []string) {
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	var problems []string
	listed := map[string]bool{}
	for _, s := range want {
		listed[s.Name] = true
		v, ok := m.metrics[s.Name]
		if !ok && !perLayer {
			problems = append(problems, fmt.Sprintf("metric %s was not measured", s.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", s.Name))
			v = 0
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for k := range m.metrics {
		if !listed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		problems = append(problems, "measured metrics missing from "+specPath+": "+strings.Join(extra, ", "))
	}
	if res.Attempted < 1 {
		problems = append(problems, "no step was attempted")
		res.Attempted = 1
	}
	return res, problems
}
