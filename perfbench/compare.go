package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The paired comparison reads saved runs of a parent and a change and
// decides, per workload and metric, what the change did. Each arm is a
// directory holding one subdirectory per workload, and in it one file
// per run: the run's standard output, whose last line is the result.
// Runs pair up by file name, so pair.sh names them by seed.
//
// The decision rule, in order:
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's own quartile spread;
//   - unresolved: the spread of either arm, as a share of its median,
//     exceeds the metric's bound, unless every change run reads better
//     than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - worsened: the improved rule with the sides swapped. Pairs run back
//     to back on the same seed, so this flags a consistent loss that
//     stays inside the bound, such as a 10% slowdown against a 25%
//     bound;
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound, so only improved, worsened and
// unchanged apply to them. The comparison fails when an end-to-end
// metric regressed or a run was incorrect; a worsened metric is
// reported but stays within the bound the benchmark fixed, so it does
// not fail the comparison.

type armStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/|Median|.
	Spread float64 `json:"spread"`
}

type comparison struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound,omitempty"`
	Pairs    int      `json:"pairs"`
	Parent   armStats `json:"parent"`
	Change   armStats `json:"change"`
	// WorseFrac is how much worse the change's median is than the
	// parent's, as a share of the parent's (negative = better).
	WorseFrac float64 `json:"worse_frac"`
	Wins      int     `json:"wins"`
	Losses    int     `json:"losses"`
	Verdict   string  `json:"verdict"`
}

type compareReport struct {
	Rows      []comparison `json:"rows"`
	Incorrect []string     `json:"incorrect_runs,omitempty"`
	// Regressed counts end-to-end metrics worse than their bound.
	Regressed int `json:"regressed"`
	// Worsened counts metrics that lost a paired streak within their
	// bound (or, per-layer, without one).
	Worsened int `json:"worsened"`
	// Pass is false when Regressed > 0 or a run was incorrect.
	Pass bool `json:"pass"`
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "directory of the parent's runs: <workload>/<run>")
	change := fs.String("change", "", "directory of the change's runs, named like the parent's")
	jsonOut := fs.String("json", "", "write the comparison as JSON to this file")
	mdOut := fs.String("md", "", "write the comparison as markdown to this file (default: standard output)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: -parent and -change are required")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	p, err := loadRuns(*parent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	c, err := loadRuns(*change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	rep, err := compareRuns(spec, p, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	var md bytes.Buffer
	writeMarkdown(&md, rep)
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, md.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	} else {
		os.Stdout.Write(md.Bytes())
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// runSet is one arm: workload -> run name -> result.
type runSet map[string]map[string]result

func loadRuns(dir string) (runSet, error) {
	wls, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := runSet{}
	for _, wl := range wls {
		if !wl.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, wl.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			path := filepath.Join(dir, wl.Name(), f.Name())
			r, err := readResult(path)
			if err != nil {
				return nil, err
			}
			if out[wl.Name()] == nil {
				out[wl.Name()] = map[string]result{}
			}
			out[wl.Name()][f.Name()] = r
		}
	}
	return out, nil
}

// readResult parses the last non-empty line of a run's output.
func readResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

func compareRuns(spec *benchSpec, parent, change runSet) (*compareReport, error) {
	rep := &compareReport{}
	specs := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	var wls []string
	for wl := range parent {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		var names []string
		for name, r := range parent[wl] {
			c, ok := change[wl][name]
			if !ok {
				continue
			}
			names = append(names, name)
			for arm, run := range map[string]result{"parent": r, "change": c} {
				if !run.Correct || run.Failed > 0 {
					rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("%s %s/%s", arm, wl, name))
				}
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			return nil, fmt.Errorf("workload %s: no run of the parent has a change run of the same name", wl)
		}
		for _, s := range specs {
			var pv, cv []float64
			for _, n := range names {
				a, okA := parent[wl][n].Metrics[s.Name]
				b, okB := change[wl][n].Metrics[s.Name]
				if okA && okB {
					pv = append(pv, a.Value)
					cv = append(cv, b.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			row := decide(s, pv, cv)
			row.Workload = wl
			switch row.Verdict {
			case "regressed":
				rep.Regressed++
			case "worsened":
				rep.Worsened++
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	sort.Strings(rep.Incorrect)
	rep.Pass = rep.Regressed == 0 && len(rep.Incorrect) == 0
	return rep, nil
}

// decide applies the decision rule to one metric's paired values.
func decide(s metricSpec, parent, change []float64) comparison {
	row := comparison{Metric: s.Name, Unit: s.Unit, Better: s.Better, Bound: s.Bound, Pairs: len(parent)}
	row.Parent, row.Change = arm(parent), arm(change)
	sign := 1.0 // +1: lower is better
	if s.Better == "higher" {
		sign = -1
	}
	if row.Parent.Median != 0 {
		row.WorseFrac = sign * (row.Change.Median - row.Parent.Median) / math.Abs(row.Parent.Median)
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			row.Wins++
		case d > 0:
			row.Losses++
		}
	}
	parentIQR := row.Parent.Q3 - row.Parent.Q1
	gap := math.Abs(row.Change.Median - row.Parent.Median)
	need := int(math.Ceil(0.9 * float64(row.Pairs)))
	allBetter := true
	for _, p := range parent {
		for _, c := range change {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	lostStreak := row.Losses >= need && gap > parentIQR
	switch {
	case row.Wins >= need && gap > parentIQR:
		row.Verdict = "improved"
	case s.Bound > 0 && math.Max(row.Parent.Spread, row.Change.Spread) > s.Bound && !allBetter:
		row.Verdict = "unresolved"
	case s.Bound > 0 && row.WorseFrac > s.Bound:
		row.Verdict = "regressed"
	case lostStreak:
		row.Verdict = "worsened"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

func arm(xs []float64) armStats {
	q1, q2, q3 := quartiles(xs)
	a := armStats{Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		a.Spread = (q3 - q1) / math.Abs(q2)
	}
	return a
}

func writeMarkdown(w io.Writer, rep *compareReport) {
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "# perfbench paired comparison: %s\n\n", verdict)
	fmt.Fprintf(w, "%d end-to-end metric(s) regressed beyond their bound; %d metric(s) worsened within it; %d incorrect run(s).\n",
		rep.Regressed, rep.Worsened, len(rep.Incorrect))
	for _, r := range rep.Incorrect {
		fmt.Fprintf(w, "- incorrect: %s\n", r)
	}
	wl := ""
	for _, r := range rep.Rows {
		if r.Workload != wl {
			wl = r.Workload
			fmt.Fprintf(w, "\n## %s (%d pairs)\n\n", wl, r.Pairs)
			fmt.Fprintln(w, "| metric | parent median [q1, q3] | change median [q1, q3] | worse by | wins/losses | bound | verdict |")
			fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
		}
		bound := "—"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(w, "| %s (%s, %s better) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | %d/%d | %s | %s |\n",
			r.Metric, r.Unit, r.Better,
			r.Parent.Median, r.Parent.Q1, r.Parent.Q3,
			r.Change.Median, r.Change.Q1, r.Change.Q3,
			100*r.WorseFrac, r.Wins, r.Losses, bound, r.Verdict)
	}
}
