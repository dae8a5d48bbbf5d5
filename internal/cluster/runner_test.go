package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// TestRunnerTransports runs a small live cluster over every carrier —
// in-memory pairs, net.Pipe under the wire framing, and real loopback
// TCP — and checks the full batch budget is trained on each.
func TestRunnerTransports(t *testing.T) {
	for _, tr := range []Transport{TransportPair, TransportPipe, TransportTCP} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			dep := buildDeployment(t, 2, "fifo")
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, Transport: tr, GradTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 2*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 2*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
		})
	}
}

// TestQuantizedProtocolOverConns exercises quantized uplinks on the live
// runtime: 8-bit activations must flow through the wire protocol and
// every client's full batch budget must be trained.
func TestQuantizedProtocolOverConns(t *testing.T) {
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(64, 67)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(core.Config{
		Model: smallModel(), Cut: 1, Clients: 2, Seed: 9,
		BatchSize: 8, LR: 0.05, QuantizeBits: 8,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: steps, Transport: TransportPipe, GradTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 2*steps {
		t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 2*steps)
	}
}

// TestRunNoGoroutineLeak runs several tiny live clusters back to back,
// sharing one telemetry registry Reset between runs, and checks each
// run tears down its server, listener and clients: the goroutine count
// afterwards returns to (about) the starting count instead of growing
// per run.
func TestRunNoGoroutineLeak(t *testing.T) {
	reg := obs.NewRegistry()
	before := runtime.NumGoroutine()
	for _, clients := range []int{1, 2} {
		for _, coalesce := range []int{1, 2} {
			reg.Reset()
			dep := buildDeployment(t, clients, "fifo")
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: 3, Transport: TransportPipe,
				Cluster: Config{BatchCoalesce: coalesce, Obs: reg},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 3*clients {
				t.Fatalf("clients=%d coalesce=%d: server processed %d batches, want %d",
					clients, coalesce, res.ServerSteps, 3*clients)
			}
		}
	}
	// Give exiting goroutines a moment to unwind.
	var after int
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		after = runtime.NumGoroutine()
		if after <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if after > before+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew %d → %d across 4 back-to-back runs\n%s", before, after, buf[:n])
	}
}

// TestRunnerAllPolicies exercises each scheduling policy end to end on
// the live runtime, including the gated sync-rounds discipline.
func TestRunnerAllPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "staleness", "fair-rr", "sync-rounds"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			dep := buildDeployment(t, 3, policy)
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, GradTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 3*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 3*steps)
			}
		})
	}
}

// TestGatedPolicyOverCap regresses two hangs: sync-rounds refuses to
// pop until every active client has queued an item, so a cap below the
// client count would wedge park mode forever and spin reject mode in a
// resend livelock. NewServer lifts the cap for gated policies; both
// runs must complete.
func TestGatedPolicyOverCap(t *testing.T) {
	for _, ov := range []Overflow{OverflowPark, OverflowReject} {
		ov := ov
		t.Run(string(ov), func(t *testing.T) {
			dep := buildDeployment(t, 3, "sync-rounds")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := Run(ctx, dep, RunnerConfig{
				StepsPerClient: 3,
				Cluster:        Config{QueueCap: 1, Overflow: ov},
				GradTimeout:    10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 9 {
				t.Fatalf("server processed %d batches, want 9", res.ServerSteps)
			}
		})
	}
}

// TestLiveMatchesSimulation is the subsystem's ground truth: a live
// concurrent run with 4 clients must reach the same final loss (±5%) as
// the virtual-time simulation of the identical deployment and seed. The
// two runtimes share all model code; they differ only in whether arrival
// skew comes from an event heap or from real goroutine concurrency, so a
// larger gap would mean the cluster runtime corrupts training. It runs
// both unbatched and with micro-batch coalescing — the coalesced pass
// must change throughput, not learning — and repeats the comparison in
// float32 mode, where the live run additionally rounds every payload
// through TSL2 float32 wire frames while the in-process simulation does
// not, so the parity tolerance widens to ±10%.
func TestLiveMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		coalesce int
		dtype    string
		tol      float64
	}{
		{coalesce: 1, dtype: "", tol: 0.05},
		{coalesce: 4, dtype: "", tol: 0.05},
		{coalesce: 1, dtype: "float32", tol: 0.10},
		{coalesce: 4, dtype: "float32", tol: 0.10},
	} {
		tc := tc
		coalesce := tc.coalesce
		name := fmt.Sprintf("coalesce=%d", coalesce)
		if tc.dtype != "" {
			name += "/" + tc.dtype
		}
		t.Run(name, func(t *testing.T) {
			const (
				clients = 4
				steps   = 30
				seed    = 7
			)
			build := func() *core.Deployment {
				ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(32*clients, 41)
				if err != nil {
					t.Fatal(err)
				}
				shards, err := data.PartitionIID(ds, clients, mathx.NewRNG(4))
				if err != nil {
					t.Fatal(err)
				}
				dep, err := core.NewDeployment(core.Config{
					Model: smallModel(), Cut: 1, Clients: clients, Seed: seed,
					BatchSize: 8, LR: 0.05, QueuePolicy: "fifo",
					BatchCoalesce: coalesce, DType: tc.dtype,
				}, shards)
				if err != nil {
					t.Fatal(err)
				}
				return dep
			}

			// Virtual-time reference. A non-zero server processing time
			// lets arrivals accumulate so coalescing actually engages.
			simDep := build()
			paths := make([]*simnet.Path, clients)
			for i := range paths {
				p, err := simnet.NewSymmetricPath(simnet.Constant{D: 5 * time.Millisecond}, 0,
					mathx.NewRNG(uint64(1000+i)))
				if err != nil {
					t.Fatal(err)
				}
				paths[i] = p
			}
			sim, err := core.NewSimulation(simDep, core.SimConfig{
				Paths: paths, MaxStepsPerClient: steps,
				ServerProcTime: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Live concurrent run of the identical deployment.
			liveDep := build()
			liveRes, err := Run(context.Background(), liveDep, RunnerConfig{
				StepsPerClient: steps, Transport: TransportPipe, GradTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}

			if liveRes.ServerSteps != simRes.ServerSteps {
				t.Fatalf("live processed %d batches, sim %d", liveRes.ServerSteps, simRes.ServerSteps)
			}
			if simRes.FinalLoss <= 0 || liveRes.FinalLoss <= 0 {
				t.Fatalf("degenerate losses: sim %.4f live %.4f", simRes.FinalLoss, liveRes.FinalLoss)
			}
			relGap := math.Abs(liveRes.FinalLoss-simRes.FinalLoss) / simRes.FinalLoss
			t.Logf("final loss: sim %.4f live %.4f (gap %.2f%%); live wall %v",
				simRes.FinalLoss, liveRes.FinalLoss, relGap*100, liveRes.WallDuration)
			if relGap > tc.tol {
				t.Fatalf("live final loss %.4f deviates %.1f%% from simulation %.4f (tolerance %.0f%%)",
					liveRes.FinalLoss, relGap*100, simRes.FinalLoss, tc.tol*100)
			}
		})
	}
}

// TestRunnerCoalescedPolicies exercises every scheduling policy on the
// live runtime with coalescing enabled: the full batch budget must be
// served and every client accounted for, whether the worker drains
// FIFO picks or atomic sync-rounds rounds.
func TestRunnerCoalescedPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "staleness", "fair-rr", "sync-rounds"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			dep := buildDeployment(t, 4, policy)
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, GradTimeout: 10 * time.Second,
				Cluster: Config{BatchCoalesce: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 4*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 4*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
		})
	}
}

// TestCoalescedBatchFaultIsolation joins one client whose activations
// are valid alongside one that sends garbage the server stack cannot
// consume. The sync-rounds gate makes the coalescing deterministic:
// the worker cannot pop until both clients have queued, and the gated
// round is atomic, so the poisoned and healthy items are guaranteed to
// land in one multi-item batch. The stacked pass fails; the worker
// must fall back to serial, evict only the offender, and finish the
// healthy client's budget.
func TestCoalescedBatchFaultIsolation(t *testing.T) {
	dep := buildDeployment(t, 2, "sync-rounds")
	srv := startServer(t, dep, Config{BatchCoalesce: 4})

	// The poisoned client speaks the protocol but ships a payload with
	// the wrong trailing shape for the server's cut point.
	poisoned, poisonedSrv := transport.NewPair(1)
	srv.Attach(poisonedSrv)
	if err := poisoned.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 1, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := poisoned.Recv(); err != nil || msg.Note != core.WelcomeNote {
		t.Fatalf("poisoned join: msg=%v err=%v", msg, err)
	}
	if err := poisoned.Send(&transport.Message{
		Type: transport.MsgActivation, ClientID: 1, Seq: 0,
		Payload: tensor.New(8, 3), Labels: make([]int, 8),
	}); err != nil {
		t.Fatal(err)
	}

	const steps = 4
	healthy, healthySrv := transport.NewPair(1)
	srv.Attach(healthySrv)
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(context.Background(), dep.Clients[0], healthy, ClientConfig{
			Steps: steps, GradTimeout: 10 * time.Second,
		})
		healthy.Close()
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("healthy client failed alongside poisoned batchmate: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.AwaitClients(ctx, 2)
	if err == nil {
		t.Fatal("expected the poisoned client's processing error from AwaitClients")
	}
	for _, c := range srv.Snapshot().Clients {
		switch c.ID {
		case 0:
			if c.Served != steps {
				t.Errorf("healthy client served %d, want %d", c.Served, steps)
			}
			if c.Err != "" {
				t.Errorf("healthy client recorded error: %s", c.Err)
			}
		case 1:
			if c.Err == "" {
				t.Error("poisoned client not recorded as evicted")
			}
			if c.Served != 0 {
				t.Errorf("poisoned client served %d, want 0", c.Served)
			}
		}
	}
	poisoned.Close()
}
