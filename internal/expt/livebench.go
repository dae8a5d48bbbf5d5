package expt

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/obs"
)

// BenchSchema is the version tag every live-bench JSON report carries.
// Readers (the CI regression gate, -compare) refuse other schemas, so
// changing the row shape means bumping this string.
const BenchSchema = "stsl-bench/1"

// LiveBenchConfig parameterises one grid run of the live-cluster
// throughput benchmark: the cross product of Clients × Policies ×
// Coalesce, each cell a full cluster.Run over the wire protocol.
type LiveBenchConfig struct {
	// Scale picks the model/batch configuration (tiny|small|paper).
	Scale Scale
	// Seed drives data generation and model init identically per cell.
	Seed uint64
	// Steps is the per-client batch budget of every cell.
	Steps int
	// Clients, Policies, Coalesce span the grid. Empty slices default to
	// {1, 4, 8}, {fifo}, {1, 4}.
	Clients  []int
	Policies []string
	Coalesce []int
	// Workers spans the data-parallel replica axis (cluster.Config.Workers
	// per cell). Empty defaults to {1} — the classic single-replica
	// server, which keeps reports comparable with pre-workers baselines.
	Workers []int
	// DTypes spans the wire-precision axis (core.Config.DType per cell:
	// "float64" or "float32"). Empty defaults to {"float64"}, which keeps
	// reports comparable with pre-dtype baselines.
	DTypes []string
	// Transport selects the carrier (default pipe: full wire framing,
	// no sockets).
	Transport cluster.Transport
	// MeasureOverhead appends a bare-vs-instrumented pair at the largest
	// client count, recording the telemetry tax as an explicit fraction
	// in the report. The instrumented grid rows always carry telemetry.
	MeasureOverhead bool
	// Repeats measures every cell this many times and keeps the
	// best-throughput run (0/1 = once). Short cells wobble ±20% with
	// scheduler noise; best-of-N is what makes a 10% regression gate
	// usable — the regression CI runs with Repeats ≥ 3.
	Repeats int
	// Progress, when non-nil, receives each completed row (for CLI
	// streaming output).
	Progress func(BenchRow)
}

// BenchRow is one measured grid cell. Field names are part of the
// stsl-bench/1 schema — append, never rename.
type BenchRow struct {
	Clients  int    `json:"clients"`
	Policy   string `json:"policy"`
	Coalesce int    `json:"coalesce"`
	// Workers is the cell's data-parallel replica count. Absent/0 in
	// reports written before the axis existed and means 1 — key()
	// normalises, so old baselines still match their single-worker cells.
	Workers int `json:"workers,omitempty"`
	// DType is the cell's wire precision. Absent/"" in reports
	// written before the axis existed and means float64 — key()
	// normalises, so old baselines still match their float64 cells.
	DType       string  `json:"dtype,omitempty"`
	Telemetry   bool    `json:"telemetry"`
	ServerSteps int     `json:"server_steps"`
	WallSeconds float64 `json:"wall_seconds"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// Queue wait quantiles (seconds) from the cell's telemetry; zero in
	// bare (telemetry=false) overhead rows.
	WaitP50       float64 `json:"wait_p50_seconds"`
	WaitP95       float64 `json:"wait_p95_seconds"`
	WaitP99       float64 `json:"wait_p99_seconds"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	FinalLoss     float64 `json:"final_loss"`
}

// key identifies a row across reports for the regression gate. Workers
// 0 (reports predating the axis) and 1 are the same cell, as are DType
// "" and "float64".
func (r BenchRow) key() string {
	w := r.Workers
	if w == 0 {
		w = 1
	}
	dt := r.DType
	if dt == "" {
		dt = "float64"
	}
	return fmt.Sprintf("clients=%d policy=%s coalesce=%d workers=%d dtype=%s telemetry=%v",
		r.Clients, r.Policy, r.Coalesce, w, dt, r.Telemetry)
}

// BenchOverhead is the measured telemetry tax at the largest grid
// client count: one bare run vs one fully instrumented run.
type BenchOverhead struct {
	Clients                 int     `json:"clients"`
	BareStepsPerSec         float64 `json:"bare_steps_per_sec"`
	InstrumentedStepsPerSec float64 `json:"instrumented_steps_per_sec"`
	// Fraction is 1 − instrumented/bare: positive means telemetry cost
	// throughput, negative means noise favoured the instrumented run.
	Fraction float64 `json:"fraction"`
}

// BenchReport is the schema-stable JSON artifact of one live-bench run
// — the unit the per-PR BENCH snapshots and the CI regression gate
// exchange.
type BenchReport struct {
	Schema         string         `json:"schema"`
	Scale          string         `json:"scale"`
	Seed           uint64         `json:"seed"`
	StepsPerClient int            `json:"steps_per_client"`
	Transport      string         `json:"transport"`
	Rows           []BenchRow     `json:"rows"`
	Overhead       *BenchOverhead `json:"overhead,omitempty"`
}

func (c LiveBenchConfig) withDefaults() LiveBenchConfig {
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 4, 8}
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"fifo"}
	}
	if len(c.Coalesce) == 0 {
		c.Coalesce = []int{1, 4}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1}
	}
	if len(c.DTypes) == 0 {
		c.DTypes = []string{"float64"}
	}
	if c.Transport == "" {
		c.Transport = cluster.TransportPipe
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	return c
}

// RunLiveBench measures live-cluster training throughput across the
// configured grid and returns the schema-stable report.
//
// All instrumented cells share ONE obs.Registry, Reset between cells:
// metric series are registered once and reused, so a full grid allocates
// the same telemetry state as a single run and leaks nothing per cell
// (each cell's server, listener, and clients are torn down by
// cluster.Run before the next cell starts — the bench smoke test pins
// this with a goroutine-count assertion).
func RunLiveBench(ctx context.Context, cfg LiveBenchConfig) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	report := &BenchReport{
		Schema:         BenchSchema,
		Scale:          cfg.Scale.Name,
		Seed:           cfg.Seed,
		StepsPerClient: cfg.Steps,
		Transport:      string(cfg.Transport),
	}

	for _, policy := range cfg.Policies {
		for _, m := range cfg.Clients {
			for _, b := range cfg.Coalesce {
				for _, w := range cfg.Workers {
					for _, dt := range cfg.DTypes {
						row, err := runBenchCell(ctx, cfg, reg, policy, m, b, w, dt)
						if err != nil {
							return nil, fmt.Errorf("expt: bench cell %s/%d clients/coalesce %d/workers %d/dtype %s: %w",
								policy, m, b, w, dt, err)
						}
						report.Rows = append(report.Rows, row)
						if cfg.Progress != nil {
							cfg.Progress(row)
						}
					}
				}
			}
		}
	}

	if cfg.MeasureOverhead {
		m := cfg.Clients[len(cfg.Clients)-1]
		policy, b := cfg.Policies[0], cfg.Coalesce[len(cfg.Coalesce)-1]
		// The overhead pair stays on the first (baseline) worker count
		// and precision — the tax being measured is telemetry's, not the
		// sync barrier's or the float32 codec's.
		w := cfg.Workers[0]
		dt := cfg.DTypes[0]
		// The overhead pair runs 4× the grid's step budget (a longer
		// window amortises per-run startup jitter) and best-of-N (at
		// least 3) alternating bare/instrumented, so scheduler and GC
		// noise — which dwarfs the few-atomics record path on short
		// cells — cancels instead of landing on one side.
		ovCfg := cfg
		ovCfg.Steps = cfg.Steps * 4
		reps := cfg.Repeats
		if reps < 3 {
			reps = 3
		}
		var bare, instr BenchRow
		for rep := 0; rep < reps; rep++ {
			bareRep, err := runBenchCellOnce(ctx, ovCfg, nil, policy, m, b, w, dt)
			if err != nil {
				return nil, fmt.Errorf("expt: bench overhead bare run: %w", err)
			}
			instrRep, err := runBenchCellOnce(ctx, ovCfg, reg, policy, m, b, w, dt)
			if err != nil {
				return nil, fmt.Errorf("expt: bench overhead instrumented run: %w", err)
			}
			if rep == 0 || bareRep.StepsPerSec > bare.StepsPerSec {
				bare = bareRep
			}
			if rep == 0 || instrRep.StepsPerSec > instr.StepsPerSec {
				instr = instrRep
			}
		}
		// Only the bare row joins Rows — the instrumented cell with the
		// same config already exists there from the grid pass, and rows
		// must be unique per (clients, policy, coalesce, telemetry).
		report.Rows = append(report.Rows, bare)
		if cfg.Progress != nil {
			cfg.Progress(bare)
			cfg.Progress(instr)
		}
		report.Overhead = &BenchOverhead{
			Clients:                 m,
			BareStepsPerSec:         bare.StepsPerSec,
			InstrumentedStepsPerSec: instr.StepsPerSec,
			Fraction:                1 - instr.StepsPerSec/bare.StepsPerSec,
		}
	}
	return report, nil
}

// runBenchCell measures one grid cell cfg.Repeats times and returns the
// best-throughput run. reg == nil runs bare (telemetry fully off — the
// overhead baseline); otherwise the shared registry is Reset and
// attached so the cell's wait quantiles land in the row.
func runBenchCell(ctx context.Context, cfg LiveBenchConfig, reg *obs.Registry, policy string, clients, coalesce, workers int, dtype string) (BenchRow, error) {
	var best BenchRow
	for rep := 0; rep < cfg.Repeats; rep++ {
		row, err := runBenchCellOnce(ctx, cfg, reg, policy, clients, coalesce, workers, dtype)
		if err != nil {
			return BenchRow{}, err
		}
		if rep == 0 || row.StepsPerSec > best.StepsPerSec {
			best = row
		}
	}
	return best, nil
}

func runBenchCellOnce(ctx context.Context, cfg LiveBenchConfig, reg *obs.Registry, policy string, clients, coalesce, workers int, dtype string) (BenchRow, error) {
	s := cfg.Scale
	gen := data.SynthCIFAR{Height: s.Model.Height, Width: s.Model.Width, Classes: s.Model.Classes}
	ds, err := gen.Generate(s.BatchSize*2*clients, cfg.Seed)
	if err != nil {
		return BenchRow{}, err
	}
	shards, err := data.PartitionIID(ds, clients, mathx.NewRNG(cfg.Seed+1))
	if err != nil {
		return BenchRow{}, err
	}
	dep, err := core.NewDeployment(core.Config{
		Model: s.Model, Cut: 1, Clients: clients, Seed: cfg.Seed,
		BatchSize: s.BatchSize, LR: s.LR,
		QueuePolicy: policy, BatchCoalesce: coalesce, DType: dtype,
	}, shards)
	if err != nil {
		return BenchRow{}, err
	}
	runnerCfg := cluster.RunnerConfig{
		StepsPerClient: cfg.Steps,
		Transport:      cfg.Transport,
	}
	if workers > 1 {
		// The runner auto-wires dep.NewServerReplica as the replica
		// factory whenever Workers > 1 with no explicit NewReplica.
		runnerCfg.Cluster.Workers = workers
	}
	if reg != nil {
		reg.Reset()
		runnerCfg.Cluster.Obs = reg
	}
	res, err := cluster.Run(ctx, dep, runnerCfg)
	if err != nil {
		return BenchRow{}, err
	}
	row := BenchRow{
		Clients:       clients,
		Policy:        policy,
		Coalesce:      coalesce,
		Workers:       workers,
		DType:         dtype,
		Telemetry:     reg != nil,
		ServerSteps:   res.ServerSteps,
		WallSeconds:   res.WallDuration.Seconds(),
		StepsPerSec:   float64(res.ServerSteps) / res.WallDuration.Seconds(),
		MaxQueueDepth: res.Snapshot.MaxQueueDepth,
		FinalLoss:     res.FinalLoss,
	}
	if reg != nil {
		wait := reg.Histogram("stsl_queue_wait_seconds", obs.Labels{"policy": policy})
		row.WaitP50 = wait.Quantile(0.50)
		row.WaitP95 = wait.Quantile(0.95)
		row.WaitP99 = wait.Quantile(0.99)
	}
	return row, nil
}

// MarshalBenchJSON renders a report as the stable on-disk artifact:
// indented, trailing newline, rows in grid order.
func MarshalBenchJSON(r *BenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateBenchJSON parses raw bytes as a BenchReport and checks the
// structural invariants the regression gate relies on: the schema tag,
// at least one row, and positive throughput everywhere.
func ValidateBenchJSON(raw []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("expt: bench JSON: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("expt: bench JSON schema %q, want %q", r.Schema, BenchSchema)
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("expt: bench JSON has no rows")
	}
	seen := map[string]bool{}
	for i, row := range r.Rows {
		if row.Clients <= 0 || row.Coalesce <= 0 || row.Policy == "" {
			return nil, fmt.Errorf("expt: bench row %d has incomplete config: %+v", i, row)
		}
		if row.Workers < 0 {
			return nil, fmt.Errorf("expt: bench row %d has negative workers: %+v", i, row)
		}
		if row.StepsPerSec <= 0 || row.WallSeconds <= 0 || row.ServerSteps <= 0 {
			return nil, fmt.Errorf("expt: bench row %d has non-positive measurements: %+v", i, row)
		}
		if seen[row.key()] {
			return nil, fmt.Errorf("expt: bench row %d duplicates %s", i, row.key())
		}
		seen[row.key()] = true
	}
	return &r, nil
}

// BenchRegression is one grid cell whose throughput dropped past the
// gate's tolerance between two reports.
type BenchRegression struct {
	Key   string  // row identity (clients/policy/coalesce/telemetry)
	Old   float64 // baseline steps/s
	New   float64 // measured steps/s
	Ratio float64 // New/Old
}

func (b BenchRegression) String() string {
	return fmt.Sprintf("%s: %.1f → %.1f steps/s (%.0f%%)", b.Key, b.Old, b.New, b.Ratio*100)
}

// CompareBench diffs two reports row by row: a cell present in both
// whose new throughput fell below old×(1−tolerance) is a regression.
// Cells only present on one side are skipped (grids may grow between
// PRs), as are schema-compatible reports at different scales or step
// budgets — those are not comparable measurements and comparing them
// is an error.
func CompareBench(old, cur *BenchReport, tolerance float64) ([]BenchRegression, error) {
	if tolerance <= 0 || tolerance >= 1 {
		return nil, fmt.Errorf("expt: bench tolerance %v out of (0,1)", tolerance)
	}
	if old.Scale != cur.Scale || old.StepsPerClient != cur.StepsPerClient || old.Transport != cur.Transport {
		return nil, fmt.Errorf("expt: bench reports not comparable: %s/%d/%s vs %s/%d/%s",
			old.Scale, old.StepsPerClient, old.Transport, cur.Scale, cur.StepsPerClient, cur.Transport)
	}
	baseline := map[string]BenchRow{}
	for _, row := range old.Rows {
		baseline[row.key()] = row
	}
	var regressions []BenchRegression
	matched := 0
	for _, row := range cur.Rows {
		base, ok := baseline[row.key()]
		if !ok || base.StepsPerSec <= 0 {
			continue
		}
		matched++
		ratio := row.StepsPerSec / base.StepsPerSec
		if ratio < 1-tolerance {
			regressions = append(regressions, BenchRegression{
				Key: row.key(), Old: base.StepsPerSec, New: row.StepsPerSec, Ratio: ratio,
			})
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("expt: bench reports share no grid cells — nothing to gate")
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Ratio < regressions[j].Ratio })
	return regressions, nil
}
