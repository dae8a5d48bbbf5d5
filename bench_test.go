// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md §4 for the experiment index), plus ablation benches for
// the design choices DESIGN.md calls out. Benchmarks default to the tiny
// scale so `go test -bench=.` completes quickly; run cmd/stsl-bench with
// -scale small|paper for full-fidelity, paper-vs-measured reproductions.
package stsl_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/baseline"
	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/compress"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// BenchmarkTableIAccuracy regenerates Table I (accuracy vs layers at
// end-systems) per iteration and reports the centralized and deepest-cut
// accuracies as metrics — the degradation between them is the paper's
// headline tradeoff.
func BenchmarkTableIAccuracy(b *testing.B) {
	s := expt.TinyScale()
	var first, last float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunTableI(s, 42)
		if err != nil {
			b.Fatal(err)
		}
		first = res.Rows[0].Accuracy
		last = res.Rows[len(res.Rows)-1].Accuracy
	}
	b.ReportMetric(first*100, "centralized-acc-%")
	b.ReportMetric(last*100, "deepest-cut-acc-%")
	b.ReportMetric((first-last)*100, "degradation-pp")
}

// BenchmarkFig1BasicSplit regenerates Fig 1: single-client split learning
// vs its monolithic twin.
func BenchmarkFig1BasicSplit(b *testing.B) {
	s := expt.TinyScale()
	var split, mono float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunFig1(s, 42)
		if err != nil {
			b.Fatal(err)
		}
		split, mono = res.SplitAccuracy, res.MonolithicAccuracy
	}
	b.ReportMetric(split*100, "split-acc-%")
	b.ReportMetric(mono*100, "monolithic-acc-%")
}

// BenchmarkFig2SpatioTemporal regenerates Fig 2's M-client framework and
// reports queue behaviour at M=4.
func BenchmarkFig2SpatioTemporal(b *testing.B) {
	s := expt.TinyScale()
	var occupancy float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunFig2(s, 42, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		occupancy = float64(res.MaxOccupancy[1])
	}
	b.ReportMetric(occupancy, "max-queue-occupancy")
}

// BenchmarkFig3CNNForward measures a training-mode forward+backward pass
// of the paper's exact Fig-3 CNN (batch 8, 32×32×3) — the per-batch cost
// every end-system and the server share.
func BenchmarkFig3CNNForward(b *testing.B) {
	model, err := nn.BuildPaperCNN(nn.PaperCNNConfig{}, mathx.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(mathx.NewRNG(2), 1, 8, 3, 32, 32)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Net.ZeroGrad()
		logits := model.Net.Forward(x, true)
		_, grad, err := nn.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			b.Fatal(err)
		}
		model.Net.Backward(grad)
	}
}

// BenchmarkFig4Privacy regenerates Fig 4's leakage measurement and
// reports the detail-leak drop from conv-only to conv+pool.
func BenchmarkFig4Privacy(b *testing.B) {
	s := expt.TinyScale()
	var convLeak, poolLeak float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunFig4(s, 42, 4, "")
		if err != nil {
			b.Fatal(err)
		}
		convLeak, poolLeak = res.MeanEdgeCorr[1], res.MeanEdgeCorr[2]
	}
	b.ReportMetric(convLeak, "conv-edge-leak")
	b.ReportMetric(poolLeak, "pooled-edge-leak")
}

// BenchmarkQueueSchedulingAblation regenerates the §II scheduling
// experiment: FIFO vs sync-rounds under a far client, fixed horizon.
func BenchmarkQueueSchedulingAblation(b *testing.B) {
	s := expt.TinyScale()
	s.Clients = 3
	var fifoImbalance, syncImbalance float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunQueueAblation(s, 42, []string{"fifo", "sync-rounds"}, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		fifoImbalance = res.Outcomes[0].Imbalance
		syncImbalance = res.Outcomes[1].Imbalance
	}
	b.ReportMetric(fifoImbalance, "fifo-imbalance")
	b.ReportMetric(syncImbalance, "sync-imbalance")
}

// BenchmarkCutSweep regenerates the X2 cut × clients accuracy surface.
func BenchmarkCutSweep(b *testing.B) {
	s := expt.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunCutSweep(s, 42, nil, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeAblation regenerates the uplink-compression ablation
// and reports the raw→8-bit compression ratio.
func BenchmarkQuantizeAblation(b *testing.B) {
	s := expt.TinyScale()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunQuantizeAblation(s, 42)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.Points[0].UplinkBytes) / float64(res.Points[2].UplinkBytes)
	}
	b.ReportMetric(ratio, "uplink-compression-x")
}

// BenchmarkRobustness regenerates the packet-loss sweep and reports
// retransmissions at 15% loss.
func BenchmarkRobustness(b *testing.B) {
	s := expt.TinyScale()
	var retrans float64
	for i := 0; i < b.N; i++ {
		res, err := expt.RunRobustness(s, 42, []float64{0.15})
		if err != nil {
			b.Fatal(err)
		}
		retrans = float64(res.Points[0].Retransmits)
	}
	b.ReportMetric(retrans, "retransmits@15%-loss")
}

// BenchmarkCompressRoundTrip measures quantize+dequantize throughput for
// the cut-1 activation geometry.
func BenchmarkCompressRoundTrip(b *testing.B) {
	r := mathx.NewRNG(1)
	x := tensor.Randn(r, 1, 32, 16, 16, 16)
	b.SetBytes(int64(8 * x.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compress.RoundTrip(x, compress.Bits8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUShapedRound measures one full U-shaped (no-label-sharing)
// round: two round trips per batch versus one for the base protocol —
// compare with BenchmarkSplitProtocolStep.
func BenchmarkUShapedRound(b *testing.B) {
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := core.NewUShaped(core.UShapedConfig{
		Model: nn.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4},
		Cut:   1, HeadLayers: 1, Clients: 1, Seed: 2, BatchSize: 8, LR: 0.05,
	}, []*data.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dep.TrainRounds(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedAvgBaseline measures the comparison baseline's cost per
// round on the tiny workload.
func BenchmarkFedAvgBaseline(b *testing.B) {
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).GenerateBalanced(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := baseline.FedAvgConfig{
		Model: nn.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4},
		Seed:  3, Rounds: 1, BatchSize: 8, LR: 0.05,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TrainFedAvg(cfg, shards); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §6) ---

// BenchmarkConvIm2Col vs BenchmarkConvDirect quantify the im2col design
// choice for the paper's first conv layer geometry (3→16 ch, 32×32):
// the lowering Conv2D.Forward ships (its inference path, like the
// inference-only direct loops) against naive nested loops.
func BenchmarkConvIm2Col(b *testing.B) {
	r := mathx.NewRNG(1)
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c", In: 3, Out: 16, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(r, 1, 8, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConvDirect(b *testing.B) {
	r := mathx.NewRNG(1)
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c", In: 3, Out: 16, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(r, 1, 8, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.DirectConvForward(conv, x)
	}
}

// BenchmarkTensorMatMul measures the float64 matmul kernel at the shape
// the fc1 layer uses (batch 32 × 256 → 512).
func BenchmarkTensorMatMul(b *testing.B) {
	r := mathx.NewRNG(1)
	a := tensor.Randn(r, 1, 32, 256)
	w := tensor.Randn(r, 1, 256, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, w)
	}
}

// BenchmarkConvSerialVsParallel ablates the conv lowering's fan-out: one
// training step (forward + backward) of the paper's first conv layer
// geometry at batch 8, with GOMAXPROCS 1 against the default.
func BenchmarkConvSerialVsParallel(b *testing.B) {
	r := mathx.NewRNG(1)
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c", In: 3, Out: 16, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(r, 1, 8, 3, 32, 32)
	grad := tensor.Randn(r, 1, 8, 16, 32, 32)
	step := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Forward(x, true)
			conv.Backward(grad)
		}
	}
	b.Run("serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		step(b)
	})
	b.Run("parallel", step)
}

// BenchmarkQueuePolicies measures scheduling overhead per push+pop for
// each discipline under a 4-client mix.
func BenchmarkQueuePolicies(b *testing.B) {
	for _, name := range []string{"fifo", "staleness", "fair-rr"} {
		b.Run(name, func(b *testing.B) {
			q, err := queue.NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			msgs := make([]*transport.Message, 4)
			for i := range msgs {
				msgs[i] = &transport.Message{Type: transport.MsgControl, ClientID: i, SentAt: time.Duration(i)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(queue.Item{Msg: msgs[i%4], ArrivedAt: time.Duration(i)})
				if i%2 == 1 {
					q.Pop(time.Duration(i))
				}
			}
		})
	}
}

// BenchmarkTransportEncode measures wire-format serialisation of a cut-1
// activation message at the paper's geometry (16×16×16 × batch 32).
func BenchmarkTransportEncode(b *testing.B) {
	r := mathx.NewRNG(1)
	labels := make([]int, 32)
	msg := &transport.Message{
		Type: transport.MsgActivation, ClientID: 1, Seq: 1,
		Payload: tensor.Randn(r, 1, 32, 16, 16, 16),
		Labels:  labels,
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := msg.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkSplitProtocolStep measures one full lock-step round of the
// split protocol (client forward → server forward/backward/step → client
// backward/step) on the tiny model, excluding network time.
func BenchmarkSplitProtocolStep(b *testing.B) {
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := core.NewDeployment(core.Config{
		Model: nn.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4},
		Cut:   1, Clients: 1, Seed: 2, BatchSize: 8, LR: 0.05,
	}, []*data.Dataset{ds})
	if err != nil {
		b.Fatal(err)
	}
	client, server := dep.Clients[0], dep.Server
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := client.ProduceBatch(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := server.Enqueue(msg, 0); err != nil {
			b.Fatal(err)
		}
		reply, ok, err := server.ProcessNext(0)
		if err != nil || !ok {
			b.Fatalf("process: ok=%v err=%v", ok, err)
		}
		if err := client.ApplyGradient(reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterThroughput measures the live-concurrency runtime's
// server throughput (training steps/sec) as the number of concurrent
// end-system goroutines, the micro-batch coalescing cap, and the
// data-parallel worker count grow, over net.Pipe with full wire
// encode/decode — the perf trajectory of the real deployment path,
// next to BenchmarkSimulationEventLoop's virtual-time twin. At 8+
// clients the coalesced passes (b>1) amortise the server's conv/matmul
// hot path across clients and beat b=1; extra workers (w>1) multiply
// it with concurrent replicas that FedAvg-sync every SyncEvery steps
// (the acceptance floor for the pool: ≥1.6× at w=2 and ≥2.5× at w=4
// against the w=1 cell at 8 clients).
func BenchmarkClusterThroughput(b *testing.B) {
	cases := []struct{ clients, coalesce, workers int }{
		{1, 1, 1},
		{4, 1, 1}, {4, 4, 1},
		{8, 1, 1}, {8, 1, 2}, {8, 1, 4}, {8, 4, 1},
		{16, 1, 1}, {16, 1, 4}, {16, 4, 1}, {16, 8, 1},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(fmt.Sprintf("clients=%d/b=%d/w=%d", tc.clients, tc.coalesce, tc.workers), func(b *testing.B) {
			const steps = 8
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(16*tc.clients, 1)
				if err != nil {
					b.Fatal(err)
				}
				shards, err := data.PartitionIID(ds, tc.clients, mathx.NewRNG(2))
				if err != nil {
					b.Fatal(err)
				}
				dep, err := core.NewDeployment(core.Config{
					Model: nn.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4},
					Cut:   1, Clients: tc.clients, Seed: 3, BatchSize: 8, LR: 0.05,
					BatchCoalesce: tc.coalesce,
				}, shards)
				if err != nil {
					b.Fatal(err)
				}
				runnerCfg := cluster.RunnerConfig{
					StepsPerClient: steps, Transport: cluster.TransportPipe,
				}
				runnerCfg.Cluster.Workers = tc.workers
				b.StartTimer()
				res, err := cluster.Run(context.Background(), dep, runnerCfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(res.ServerSteps)/res.WallDuration.Seconds(), "steps/s")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSimulationEventLoop measures simulator throughput (events/sec)
// with 4 clients and realistic latency spread, dominated by NN compute.
func BenchmarkSimulationEventLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(64, 1)
		if err != nil {
			b.Fatal(err)
		}
		shards, err := data.PartitionIID(ds, 4, mathx.NewRNG(2))
		if err != nil {
			b.Fatal(err)
		}
		dep, err := core.NewDeployment(core.Config{
			Model: nn.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4},
			Cut:   1, Clients: 4, Seed: 3, BatchSize: 8, LR: 0.05,
		}, shards)
		if err != nil {
			b.Fatal(err)
		}
		paths := make([]*simnet.Path, 4)
		for j := range paths {
			paths[j], err = simnet.NewSymmetricPath(
				simnet.Uniform{Lo: time.Millisecond, Hi: 50 * time.Millisecond}, 0, mathx.NewRNG(uint64(j)))
			if err != nil {
				b.Fatal(err)
			}
		}
		sim, err := core.NewSimulation(dep, core.SimConfig{Paths: paths, MaxStepsPerClient: 10})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
