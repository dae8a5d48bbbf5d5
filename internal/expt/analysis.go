package expt

import (
	"fmt"
	"sort"
	"strings"
)

// AnalyzeBench renders a human-readable markdown digest of one bench
// report: the best-throughput cell per queue policy, and — when the
// report spans more than one worker count — the speedup and scaling
// efficiency of every multi-replica cell against the smallest worker
// count measured for the same (clients, policy, coalesce, telemetry)
// configuration. This is what `stsl-bench -analysis` writes as
// analysis.md next to the BENCH snapshot.
func AnalyzeBench(r *BenchReport) string {
	var b strings.Builder
	b.WriteString("# Live bench analysis\n\n")
	fmt.Fprintf(&b, "Scale `%s`, seed %d, %d steps/client, transport `%s`, %d rows.\n\n",
		r.Scale, r.Seed, r.StepsPerClient, r.Transport, len(r.Rows))

	writeBestPerPolicy(&b, r)
	writeWorkerScaling(&b, r)
	writeDTypeComparison(&b, r)

	if r.Overhead != nil {
		b.WriteString("## Telemetry overhead\n\n")
		fmt.Fprintf(&b, "At %d clients: %.1f steps/s bare vs %.1f instrumented — a %.1f%% tax.\n",
			r.Overhead.Clients, r.Overhead.BareStepsPerSec,
			r.Overhead.InstrumentedStepsPerSec, r.Overhead.Fraction*100)
	}
	return b.String()
}

func writeBestPerPolicy(b *strings.Builder, r *BenchReport) {
	best := map[string]BenchRow{}
	var policies []string
	for _, row := range r.Rows {
		cur, seen := best[row.Policy]
		if !seen {
			policies = append(policies, row.Policy)
		}
		if !seen || row.StepsPerSec > cur.StepsPerSec {
			best[row.Policy] = row
		}
	}
	sort.Strings(policies)

	b.WriteString("## Best cell per policy\n\n")
	b.WriteString("| policy | clients | coalesce | workers | dtype | steps/s | p95 wait (ms) | final loss |\n")
	b.WriteString("|---|---:|---:|---:|---|---:|---:|---:|\n")
	for _, p := range policies {
		row := best[p]
		fmt.Fprintf(b, "| %s | %d | %d | %d | %s | %.1f | %.2f | %.4f |\n",
			row.Policy, row.Clients, row.Coalesce, rowWorkers(row), rowDType(row),
			row.StepsPerSec, row.WaitP95*1e3, row.FinalLoss)
	}
	b.WriteString("\n")
}

// writeWorkerScaling compares cells that differ only in worker count.
// Efficiency is speedup over ideal linear scaling: a perfect
// data-parallel pool at 4× the replicas of its baseline scores 1.0
// with a 4× speedup, 0.5 with 2×.
func writeWorkerScaling(b *strings.Builder, r *BenchReport) {
	type groupKey struct {
		clients, coalesce int
		policy, dtype     string
		telemetry         bool
	}
	groups := map[groupKey][]BenchRow{}
	var order []groupKey
	for _, row := range r.Rows {
		k := groupKey{row.Clients, row.Coalesce, row.Policy, rowDType(row), row.Telemetry}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}

	b.WriteString("## Worker scaling\n\n")
	wrote := false
	for _, k := range order {
		rows := groups[k]
		if len(rows) < 2 {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return rowWorkers(rows[i]) < rowWorkers(rows[j]) })
		base := rows[0]
		if base.StepsPerSec <= 0 {
			continue
		}
		if !wrote {
			b.WriteString("| clients | policy | coalesce | workers | steps/s | speedup | efficiency |\n")
			b.WriteString("|---:|---|---:|---:|---:|---:|---:|\n")
			wrote = true
		}
		fmt.Fprintf(b, "| %d | %s | %d | %d | %.1f | 1.00x | — |\n",
			base.Clients, base.Policy, base.Coalesce, rowWorkers(base), base.StepsPerSec)
		for _, row := range rows[1:] {
			speedup := row.StepsPerSec / base.StepsPerSec
			ideal := float64(rowWorkers(row)) / float64(rowWorkers(base))
			fmt.Fprintf(b, "| %d | %s | %d | %d | %.1f | %.2fx | %.0f%% |\n",
				row.Clients, row.Policy, row.Coalesce, rowWorkers(row),
				row.StepsPerSec, speedup, speedup/ideal*100)
		}
	}
	if !wrote {
		b.WriteString("No cell was measured at more than one worker count — run with `-workers 1,2,4` to populate this section.\n")
	}
	b.WriteString("\n")
}

// writeDTypeComparison compares cells that differ only in wire
// precision: the float32-frame cell's throughput against the
// float64-frame cell with the same (clients, policy, coalesce, workers,
// telemetry) configuration, plus the final-loss gap — float32 frames
// should buy wire bytes without moving the loss.
func writeDTypeComparison(b *strings.Builder, r *BenchReport) {
	type groupKey struct {
		clients, coalesce, workers int
		policy                     string
		telemetry                  bool
	}
	groups := map[groupKey]map[string]BenchRow{}
	var order []groupKey
	for _, row := range r.Rows {
		k := groupKey{row.Clients, row.Coalesce, rowWorkers(row), row.Policy, row.Telemetry}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			groups[k] = map[string]BenchRow{}
		}
		groups[k][rowDType(row)] = row
	}

	b.WriteString("## Wire precision (float32 vs float64 frames)\n\n")
	wrote := false
	for _, k := range order {
		f64, ok64 := groups[k]["float64"]
		f32, ok32 := groups[k]["float32"]
		if !ok64 || !ok32 || f64.StepsPerSec <= 0 {
			continue
		}
		if !wrote {
			b.WriteString("| clients | policy | coalesce | workers | f64 steps/s | f32 steps/s | speedup | loss gap |\n")
			b.WriteString("|---:|---|---:|---:|---:|---:|---:|---:|\n")
			wrote = true
		}
		fmt.Fprintf(b, "| %d | %s | %d | %d | %.1f | %.1f | %.2fx | %+.4f |\n",
			k.clients, k.policy, k.coalesce, k.workers,
			f64.StepsPerSec, f32.StepsPerSec, f32.StepsPerSec/f64.StepsPerSec,
			f32.FinalLoss-f64.FinalLoss)
	}
	if !wrote {
		b.WriteString("No cell was measured at both precisions — run with `-dtype float64,float32` to populate this section.\n")
	}
	b.WriteString("\n")
}

// rowWorkers normalises the replica count of rows written before the
// workers axis existed (absent → 1), mirroring BenchRow.key.
func rowWorkers(r BenchRow) int {
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// rowDType normalises the precision of rows written before the dtype
// axis existed (absent → float64), mirroring BenchRow.key.
func rowDType(r BenchRow) string {
	if r.DType == "" {
		return "float64"
	}
	return r.DType
}
