package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{9999, 99, 99},
		{1010, 99, 10},
		{1000, 99, 10},
		{999, 95, 49},
		{100, 90, 10},
		{20, 50, 10},
		{19, 0, 19},
		{0, 0, 0},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// The spreads the benchmark reports must match Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestCheckReplyGate(t *testing.T) {
	act := tensor.New(2, 3)
	sent := &transport.Message{Type: transport.MsgActivation, ClientID: 1, Seq: 5, Payload: act, Labels: []int{0, 1}}
	good := func() *transport.Message {
		return &transport.Message{Type: transport.MsgGradient, ClientID: 1, Seq: 5, Payload: tensor.New(2, 3)}
	}
	if err := checkReply(sent, good()); err != nil {
		t.Fatalf("a well-formed gradient was rejected: %v", err)
	}
	nan := good()
	nan.Payload.Data()[4] = math.NaN()
	inf := good()
	inf.Payload.Data()[0] = math.Inf(-1)
	wrongSeq := good()
	wrongSeq.Seq = 4
	wrongClient := good()
	wrongClient.ClientID = 0
	for name, reply := range map[string]*transport.Message{
		"wrong seq":    wrongSeq,
		"wrong client": wrongClient,
		"NaN value":    nan,
		"Inf value":    inf,
		"wrong shape":  {Type: transport.MsgGradient, ClientID: 1, Seq: 5, Payload: tensor.New(3, 2)},
		"no payload":   {Type: transport.MsgGradient, ClientID: 1, Seq: 5},
		"rejected":     {Type: transport.MsgControl, ClientID: 1, Seq: 5, Note: core.RejectedNote},
		"expired":      {Type: transport.MsgControl, ClientID: 1, Seq: 5, Note: core.ExpiredNote},
		"nothing":      nil,
	} {
		if err := checkReply(sent, reply); err == nil {
			t.Errorf("%s: the gate accepted the reply", name)
		}
	}
}

// recordFrames encodes every activation a workload records for seed.
func recordFrames(t *testing.T, w workload, seed uint64) [][]byte {
	t.Helper()
	shards, _, err := w.genData(seed)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(w.deploymentConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := record(dep)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, sess := range frames {
		for _, f := range sess {
			var buf bytes.Buffer
			if err := f.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

func TestSameSeedRecordsIdenticalFrames(t *testing.T) {
	for _, name := range []string{"replay-tiny", "replay-small"} {
		w, _ := workloadByName(name)
		a, b := recordFrames(t, w, 7), recordFrames(t, w, 7)
		if len(a) != sessions*recorded || len(a) != len(b) {
			t.Fatalf("%s: recorded %d and %d frames, want %d", name, len(a), len(b), sessions*recorded)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: frame %d differs between two recordings with the same seed", name, i)
			}
		}
		c := recordFrames(t, w, 8)
		if bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 recorded the same first frame", name)
		}
	}
}

// Each kind of live window (replay, the pool with checkpoints, real
// end-systems) runs at tiny scale with the server's registry on, passes
// its own correctness gate and leaves no goroutine or listener behind.
func TestLiveWindowsPassTheGate(t *testing.T) {
	// The checkpoint directory is relative to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	tiny := expt.TinyScale()
	for _, w := range []workload{
		{name: "replay", scale: tiny, workers: 1, lr: 0.05},
		{name: "pool", scale: tiny, workers: 2, ckpt: true, lr: 0.025},
		{name: "train", scale: tiny, workers: 1, train: true, lr: 0.05},
	} {
		baseline := runtime.NumGoroutine()
		e, err := setup(w, 3, obs.NewRegistry())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		addr := e.lis.Addr()
		l := runLive(e, 1, true, 0)
		problems := append(l.problems, checkNoLeaks(baseline, addr)...)
		if l.failed > 0 || len(problems) > 0 {
			t.Errorf("%s: %d failed steps, problems %v", w.name, l.failed, problems)
		}
		if l.steps == 0 || l.serverStep != l.totalSteps {
			t.Errorf("%s: %d steps in the window, %d in all, server counted %d", w.name, l.steps, l.totalSteps, l.serverStep)
		}
		if w.ckpt && e.sink.writes.Load() == 0 {
			t.Errorf("%s: the final checkpoint was not written", w.name)
		}
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every per-layer metric the layered pass can produce must be listed in
// BENCHMARK.json, or a traced run would fail on it.
func TestLayeredPassMetricsAreListed(t *testing.T) {
	spec := loadTestSpec(t)
	listed := map[string]bool{}
	for _, s := range spec.PerLayer {
		listed[s.Name] = true
	}
	for _, name := range []string{"replay-tiny", "replay-small-pool", "train-small"} {
		w, _ := workloadByName(name)
		e := &env{w: w, seed: 3}
		var err error
		if e.shards, e.test, err = w.genData(e.seed); err != nil {
			t.Fatal(err)
		}
		if e.dep, err = core.NewDeployment(w.deploymentConfig(), e.shards); err != nil {
			t.Fatal(err)
		}
		if !w.train {
			if e.frames, err = record(e.dep); err != nil {
				t.Fatal(err)
			}
		}
		pass, err := layeredPass(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pass.problems) > 0 {
			t.Errorf("%s: %v", name, pass.problems)
		}
		for k, v := range pass.metrics {
			if !listed[k] {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", name, k)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, k, v)
			}
		}
		if pass.metrics["core.process_ms"] <= 0 || pass.metrics["nn.fwd_ms"] <= 0 {
			t.Errorf("%s: the layered pass timed nothing: %v", name, pass.metrics)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}

func TestAppendSpansKeepsParents(t *testing.T) {
	a := []span{{Name: "step", Parent: -1}, {Name: "transport.send", Parent: 0}}
	b := []span{{Name: "step", Parent: -1}, {Name: "transport.send", Parent: 0}}
	got := appendSpans(a, b)
	if got[3].Parent != 2 || got[2].Parent != -1 {
		t.Errorf("parents after merge = %d, %d; want -1, 2", got[2].Parent, got[3].Parent)
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "core.process", Start: 0, End: 100, Parent: -1},
		{Name: "nn.0.dense.fwd", Start: 10, End: 40, Parent: 0},
		{Name: "opt.step", Start: 50, End: 70, Parent: 0},
	}
	s := summarize(spans)
	if got := s["core.process"].own; got != 50 {
		t.Errorf("self time of core.process = %v, want 50 (100 minus children 30 and 20)", got)
	}
	if got := s["opt.step"].own; got != 20 {
		t.Errorf("self time of a leaf = %v, want its duration 20", got)
	}
}

// writeRuns stores one arm's runs as compare reads them.
func writeRuns(t *testing.T, dir, workload string, runs []result) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, workload), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte("a report line before the result\n"), line...)
		name := filepath.Join(dir, workload, fmt.Sprintf("%03d.json", i))
		if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// syntheticRuns makes ten runs whose end-to-end metrics jitter by under
// one percent around fixed values.
func syntheticRuns(spec *benchSpec, scale map[string]float64) []result {
	var runs []result
	for i := 0; i < 10; i++ {
		r := result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}
		jitter := 1 + 0.002*float64((i*7)%5-2)
		for _, s := range spec.EndToEnd {
			v := 100 * jitter
			if f, ok := scale[s.Name]; ok {
				v *= f
			}
			r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		}
		runs = append(runs, r)
	}
	return runs
}

func TestCompareFlagsTenPercentSlowdown(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	parent, same := filepath.Join(dir, "parent"), filepath.Join(dir, "same")
	slow, slower := filepath.Join(dir, "slow"), filepath.Join(dir, "slower")
	writeRuns(t, parent, "replay-small", syntheticRuns(spec, nil))
	writeRuns(t, same, "replay-small", syntheticRuns(spec, nil))
	writeRuns(t, slow, "replay-small", syntheticRuns(spec, map[string]float64{"samples_per_s": 0.9}))
	writeRuns(t, slower, "replay-small", syntheticRuns(spec, map[string]float64{"samples_per_s": 0.7}))
	p, err := loadRuns(parent)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		arm      string
		pass     bool
		verdicts map[string]string
	}{
		{same, true, map[string]string{"samples_per_s": "unchanged", "step_p50_ms": "unchanged"}},
		// A 10% slowdown is flagged but stays inside the 25% bound.
		{slow, true, map[string]string{"samples_per_s": "worsened", "step_p50_ms": "unchanged"}},
		{slower, false, map[string]string{"samples_per_s": "regressed", "step_p50_ms": "unchanged"}},
	} {
		ch, err := loadRuns(c.arm)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := compareRuns(spec, p, ch)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass != c.pass {
			t.Errorf("%s: pass = %v, want %v", filepath.Base(c.arm), rep.Pass, c.pass)
		}
		for _, row := range rep.Rows {
			if want, ok := c.verdicts[row.Metric]; ok && row.Verdict != want {
				t.Errorf("%s: %s verdict %q, want %q", filepath.Base(c.arm), row.Metric, row.Verdict, want)
			}
			if row.Pairs != 10 {
				t.Errorf("%s: %s compared %d pairs, want 10", filepath.Base(c.arm), row.Metric, row.Pairs)
			}
		}
		var md bytes.Buffer
		writeMarkdown(&md, rep)
		if !strings.Contains(md.String(), "| samples_per_s") {
			t.Errorf("markdown report lacks the samples_per_s row:\n%s", md.String())
		}
	}
}

func TestDecideRules(t *testing.T) {
	s := metricSpec{Name: "samples_per_s", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	if v := decide(s, base, scaled(1.2)).Verdict; v != "improved" {
		t.Errorf("a 20%% gain in every pair: verdict %q, want improved", v)
	}
	noisy := []float64{60, 140, 70, 130, 100, 100, 80, 120, 90, 110}
	if v := decide(s, base, noisy).Verdict; v != "unresolved" {
		t.Errorf("a change arm spread far beyond the bound: verdict %q, want unresolved", v)
	}
	lower := metricSpec{Name: "step_p50_ms", Better: "lower", Bound: 0.05}
	if v := decide(lower, base, scaled(1.1)).Verdict; v != "regressed" {
		t.Errorf("latency 10%% higher in every pair, 5%% bound: verdict %q, want regressed", v)
	}
	wide := metricSpec{Name: "step_p50_ms", Better: "lower", Bound: 0.25}
	if v := decide(wide, base, scaled(1.1)).Verdict; v != "worsened" {
		t.Errorf("latency 10%% higher in every pair, 25%% bound: verdict %q, want worsened", v)
	}
	// A deterministic count has no spread: one more byte per sample is
	// flagged, not failed, while it stays inside the bound.
	count := metricSpec{Name: "wire_bytes_per_sample", Better: "lower", Bound: 0.05}
	flat := []float64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}
	plusOne := []float64{1001, 1001, 1001, 1001, 1001, 1001, 1001, 1001, 1001, 1001}
	if v := decide(count, flat, plusOne).Verdict; v != "worsened" {
		t.Errorf("a deterministic count one higher: verdict %q, want worsened", v)
	}
	// Two pairs win, so there is no loss streak, but the median is
	// about 9% worse, beyond an 8% bound.
	parent := append([]float64(nil), base...)
	parent[8], parent[9] = 115, 115
	change := []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}
	loose := metricSpec{Name: "step_p50_ms", Better: "lower", Bound: 0.08}
	if v := decide(loose, parent, change).Verdict; v != "regressed" {
		t.Errorf("median 9%% higher without a paired loss streak: verdict %q, want regressed", v)
	}
}
