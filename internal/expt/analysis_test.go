package expt

import (
	"strings"
	"testing"
)

func analysisFixture() *BenchReport {
	return &BenchReport{
		Schema: BenchSchema, Scale: "tiny", Seed: 7, StepsPerClient: 8, Transport: "pipe",
		Rows: []BenchRow{
			{Clients: 8, Policy: "fifo", Coalesce: 4, Workers: 1, Telemetry: true,
				ServerSteps: 64, WallSeconds: 1, StepsPerSec: 100, WaitP95: 0.002, FinalLoss: 1.2},
			{Clients: 8, Policy: "fifo", Coalesce: 4, Workers: 2, Telemetry: true,
				ServerSteps: 64, WallSeconds: 1, StepsPerSec: 180, WaitP95: 0.001, FinalLoss: 1.25},
			{Clients: 8, Policy: "fifo", Coalesce: 4, Workers: 4, Telemetry: true,
				ServerSteps: 64, WallSeconds: 1, StepsPerSec: 300, WaitP95: 0.001, FinalLoss: 1.3},
			{Clients: 8, Policy: "staleness", Coalesce: 4, Workers: 1, Telemetry: true,
				ServerSteps: 64, WallSeconds: 1, StepsPerSec: 95, WaitP95: 0.002, FinalLoss: 1.21},
		},
		Overhead: &BenchOverhead{Clients: 8, BareStepsPerSec: 102, InstrumentedStepsPerSec: 100, Fraction: 0.0196},
	}
}

// TestAnalyzeBench checks the markdown digest names the best cell per
// policy and computes worker-scaling speedup and efficiency.
func TestAnalyzeBench(t *testing.T) {
	md := AnalyzeBench(analysisFixture())

	for _, want := range []string{
		"# Live bench analysis",
		"## Best cell per policy",
		// fifo's best cell is the workers=4 row at 300 steps/s.
		"| fifo | 8 | 4 | 4 | float64 | 300.0 |",
		"| staleness | 8 | 4 | 1 | float64 | 95.0 |",
		"## Worker scaling",
		// workers=2: 180/100 = 1.80x speedup, 90% of linear.
		"| 1.80x | 90% |",
		// workers=4: 300/100 = 3.00x speedup, 75% of linear.
		"| 3.00x | 75% |",
		"## Telemetry overhead",
		"2.0% tax",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("analysis missing %q\n%s", want, md)
		}
	}
}

// TestAnalyzeBenchDTypes: cells measured at both precisions produce the
// float32-vs-float64 comparison table, keyed on otherwise-identical
// configuration; rows written before the dtype axis read as float64.
func TestAnalyzeBenchDTypes(t *testing.T) {
	r := analysisFixture()
	r.Rows = []BenchRow{
		{Clients: 8, Policy: "fifo", Coalesce: 4, Workers: 1, Telemetry: true,
			ServerSteps: 64, WallSeconds: 1, StepsPerSec: 100, FinalLoss: 1.2},
		{Clients: 8, Policy: "fifo", Coalesce: 4, Workers: 1, DType: "float32", Telemetry: true,
			ServerSteps: 64, WallSeconds: 1, StepsPerSec: 125, FinalLoss: 1.21},
	}
	md := AnalyzeBench(r)
	for _, want := range []string{
		"## Wire precision (float32 vs float64 frames)",
		// 125/100 = 1.25x speedup, loss gap 1.21-1.20 = +0.01.
		"| 8 | fifo | 4 | 1 | 100.0 | 125.0 | 1.25x | +0.0100 |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("analysis missing %q\n%s", want, md)
		}
	}
	// The dtype-less f64 row and the f32 row differ only in precision, so
	// the worker-scaling section must not treat them as a scaling pair.
	if !strings.Contains(md, "No cell was measured at more than one worker count") {
		t.Errorf("worker scaling mixed precisions:\n%s", md)
	}
}

// TestAnalyzeBenchSingleWorker: a report with no multi-worker cells
// says so instead of emitting an empty table, and rows written before
// the workers axis (Workers == 0) read as 1.
func TestAnalyzeBenchSingleWorker(t *testing.T) {
	r := analysisFixture()
	r.Rows = r.Rows[:1]
	r.Rows[0].Workers = 0
	r.Overhead = nil
	md := AnalyzeBench(r)
	if !strings.Contains(md, "No cell was measured at more than one worker count") {
		t.Errorf("missing single-worker fallback:\n%s", md)
	}
	if !strings.Contains(md, "| fifo | 8 | 4 | 1 | float64 | 100.0 |") {
		t.Errorf("legacy workers=0 row not normalised to 1:\n%s", md)
	}
	if !strings.Contains(md, "No cell was measured at both precisions") {
		t.Errorf("missing single-precision fallback:\n%s", md)
	}
	if strings.Contains(md, "Telemetry overhead") {
		t.Errorf("overhead section emitted without overhead data:\n%s", md)
	}
}
