package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// smallModel is a fast CNN config used across core tests.
func smallModel() nn.PaperCNNConfig {
	return nn.PaperCNNConfig{
		InChannels: 3, Height: 8, Width: 8,
		Filters: []int{4, 8},
		Hidden:  16,
		Classes: 4,
	}
}

func smallData(t *testing.T, n int, seed uint64) *data.Dataset {
	t.Helper()
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func constPaths(n int, d time.Duration) []*simnet.Path {
	paths := make([]*simnet.Path, n)
	for i := range paths {
		r := mathx.NewRNG(uint64(1000 + i))
		p, err := simnet.NewSymmetricPath(simnet.Constant{D: d}, 0, r)
		if err != nil {
			panic(err)
		}
		paths[i] = p
	}
	return paths
}

func TestSplitPartitionsLayers(t *testing.T) {
	r := mathx.NewRNG(1)
	m, err := nn.BuildPaperCNN(smallModel(), r)
	if err != nil {
		t.Fatal(err)
	}
	total := m.Net.Len()
	for cut := 0; cut <= m.MaxCut(); cut++ {
		client, server, err := Split(m, cut)
		if err != nil {
			t.Fatal(err)
		}
		if client.Len()+server.Len() != total {
			t.Fatalf("cut %d: %d + %d != %d layers", cut, client.Len(), server.Len(), total)
		}
		// The composition must equal the whole net.
		x := smallData(t, 2, 5).X
		whole := m.Net.Forward(x, false)
		split := server.Forward(client.Forward(x, false), false)
		if !whole.Equal(split, 1e-12) {
			t.Fatalf("cut %d: split composition differs from monolithic forward", cut)
		}
	}
	if _, _, err := Split(m, 99); err == nil {
		t.Fatal("invalid cut accepted")
	}
}

func TestEndSystemLockStep(t *testing.T) {
	ds := smallData(t, 32, 2)
	batcher, err := data.NewBatcher(ds, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := mathx.NewRNG(3)
	m, err := nn.BuildPaperCNN(smallModel(), r)
	if err != nil {
		t.Fatal(err)
	}
	lower, _, err := Split(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := opt.NewSGD(opt.Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEndSystem(0, lower, o, batcher)
	if err != nil {
		t.Fatal(err)
	}

	msg, err := es.ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != transport.MsgActivation || msg.Seq != 0 || len(msg.Labels) != 8 {
		t.Fatalf("unexpected activation message %+v", msg)
	}
	// Producing again without the gradient must fail.
	if _, err := es.ProduceBatch(0); err == nil {
		t.Fatal("second produce while outstanding accepted")
	}
	// Wrong-seq gradient must fail.
	bad := &transport.Message{Type: transport.MsgGradient, Seq: 5, Payload: msg.Payload}
	if err := es.ApplyGradient(bad); err == nil {
		t.Fatal("wrong-seq gradient accepted")
	}
	good := &transport.Message{Type: transport.MsgGradient, Seq: 0, Payload: msg.Payload.Clone()}
	if err := es.ApplyGradient(good); err != nil {
		t.Fatal(err)
	}
	if es.HasOutstanding() {
		t.Fatal("still outstanding after gradient")
	}
	if es.Steps() != 1 {
		t.Fatalf("Steps = %d", es.Steps())
	}
}

func TestServerProcessing(t *testing.T) {
	r := mathx.NewRNG(4)
	m, err := nn.BuildPaperCNN(smallModel(), r)
	if err != nil {
		t.Fatal(err)
	}
	_, upper, err := Split(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := opt.NewSGD(opt.Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := newQueuePolicy("fifo", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(upper, o, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Empty queue: not ok, no error.
	if _, ok, err := srv.ProcessNext(0); ok || err != nil {
		t.Fatalf("empty queue ProcessNext = ok=%v err=%v", ok, err)
	}
	// Activation of shape the upper stack expects: (N,4,4,4) after block 1.
	act := smallData(t, 2, 6).X
	lower, _, err := Split(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	smashed := lower.Forward(act, false)
	msg := &transport.Message{
		Type: transport.MsgActivation, ClientID: 3, Seq: 9,
		Payload: smashed, Labels: []int{0, 1}, SentAt: time.Millisecond,
	}
	if err := srv.Enqueue(msg, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	reply, ok, err := srv.ProcessNext(3 * time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("ProcessNext: ok=%v err=%v", ok, err)
	}
	if reply.Type != transport.MsgGradient || reply.ClientID != 3 || reply.Seq != 9 {
		t.Fatalf("bad reply %+v", reply)
	}
	if !reply.Payload.SameShape(smashed) {
		t.Fatal("gradient shape does not match activation shape")
	}
	if srv.Steps() != 1 {
		t.Fatalf("Steps = %d", srv.Steps())
	}
	// Wrong message type rejected at enqueue.
	if err := srv.Enqueue(reply, 0); err == nil {
		t.Fatal("gradient enqueued as activation")
	}
}

// TestServerProcessBatch covers the coalesced pass: a compatible batch
// yields one reply per item with per-client gradient slices, and every
// failure path — incompatible stacking, geometry the stack rejects,
// out-of-range labels — is caught in pre-flight, before the model
// mutates at all (checked through BatchNorm running statistics, which a
// training forward would update).
func TestServerProcessBatch(t *testing.T) {
	cfg := smallModel()
	cfg.BatchNorm = true // running stats make hidden state mutation observable
	r := mathx.NewRNG(11)
	m, err := nn.BuildPaperCNN(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper, err := Split(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := opt.NewSGD(opt.Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(upper, o, newTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	makeItem := func(client, n int, seed uint64) queue.Item {
		act := lower.Forward(smallData(t, n, seed).X, false)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % 4
		}
		return queue.Item{Msg: &transport.Message{
			Type: transport.MsgActivation, ClientID: client, Seq: client,
			Payload: act, Labels: labels,
		}}
	}

	// Success: two items, one stacked pass, per-item replies.
	items := []queue.Item{makeItem(0, 2, 21), makeItem(1, 3, 22)}
	replies, err := srv.ProcessBatch(items, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("%d replies for 2 items", len(replies))
	}
	for i, reply := range replies {
		if reply.ClientID != i || !reply.Payload.SameShape(items[i].Msg.Payload) {
			t.Fatalf("reply %d: client %d, gradient shape %v for activation %v",
				i, reply.ClientID, reply.Payload.Shape(), items[i].Msg.Payload.Shape())
		}
	}
	if srv.Steps() != 2 {
		t.Fatalf("Steps = %d after a coalesced pass over 2 items", srv.Steps())
	}

	// Every failure must leave the model bitwise-untouched — inference
	// forwards read the BatchNorm running statistics, so identical probe
	// outputs prove no training forward ran.
	probe := items[0].Msg.Payload
	before := srv.Stack.Forward(probe, false)
	stepsBefore := srv.Steps()
	bad := []struct {
		name, wantErr string
		items         []queue.Item
	}{
		{"incompatible-stack", "incompatible", []queue.Item{
			makeItem(0, 2, 23),
			{Msg: &transport.Message{Type: transport.MsgActivation, ClientID: 1,
				Payload: tensor.New(2, 7), Labels: []int{0, 1}}},
		}},
		{"wrong-geometry", "does not fit", []queue.Item{
			{Msg: &transport.Message{Type: transport.MsgActivation, ClientID: 0,
				Payload: tensor.New(2, 9, 4, 4), Labels: []int{0, 1}}},
			{Msg: &transport.Message{Type: transport.MsgActivation, ClientID: 1,
				Payload: tensor.New(2, 9, 4, 4), Labels: []int{0, 1}}},
		}},
		{"label-out-of-range", "out of range", func() []queue.Item {
			poisoned := makeItem(1, 2, 24)
			poisoned.Msg.Labels[1] = 99
			return []queue.Item{makeItem(0, 2, 25), poisoned}
		}()},
	}
	for _, tc := range bad {
		_, err := srv.ProcessBatch(tc.items, 0)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
	after := srv.Stack.Forward(probe, false)
	if !after.Equal(before, 0) {
		t.Fatal("failed coalesced batches mutated model state (BatchNorm statistics)")
	}
	if srv.Steps() != stepsBefore {
		t.Fatalf("failed batches advanced Steps from %d to %d", stepsBefore, srv.Steps())
	}
}

func newTestPolicy(t *testing.T) queue.Policy {
	t.Helper()
	pol, err := newQueuePolicy("fifo", 1)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestSplitEquivalentToMonolithic is invariant #1 from DESIGN.md: one
// client, shared init, zero latency, FIFO — split training must produce
// bitwise-identical weights to training the monolithic network on the
// same batch stream.
func TestSplitEquivalentToMonolithic(t *testing.T) {
	const (
		seed      = uint64(42)
		batchSize = 8
		steps     = 6
		lr        = 0.05
	)
	ds := smallData(t, 64, 7)

	for _, cut := range []int{0, 1, 2} {
		// --- split run ---
		dep, err := NewDeployment(Config{
			Model: smallModel(), Cut: cut, Clients: 1, Seed: seed,
			SharedClientInit: true, BatchSize: batchSize, LR: lr,
		}, []*data.Dataset{ds})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulation(dep, SimConfig{
			Paths:             constPaths(1, 0),
			MaxStepsPerClient: steps,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}

		// --- monolithic run on the same batch stream ---
		mono, err := nn.BuildPaperCNN(smallModel(), mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		// Same batcher construction as NewDeployment uses for client 0.
		batcher, err := data.NewBatcher(ds, batchSize, mathx.NewRNG(seed+0*7919+13))
		if err != nil {
			t.Fatal(err)
		}
		o, err := opt.NewSGD(opt.Config{LR: lr})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			batch, ok := batcher.Next()
			if !ok {
				batch, _ = batcher.Next()
			}
			mono.Net.ZeroGrad()
			logits := mono.Net.Forward(batch.X, true)
			_, grad, err := nn.SoftmaxCrossEntropy(logits, batch.Y)
			if err != nil {
				t.Fatal(err)
			}
			mono.Net.Backward(grad)
			o.Step(mono.Net.Params())
		}

		// --- compare every parameter ---
		splitParams := append(dep.Clients[0].Stack.Params(), dep.Server.Stack.Params()...)
		monoParams := mono.Net.Params()
		if len(splitParams) != len(monoParams) {
			t.Fatalf("cut %d: param count %d vs %d", cut, len(splitParams), len(monoParams))
		}
		for i, sp := range splitParams {
			if !sp.Value.Equal(monoParams[i].Value, 0) {
				t.Fatalf("cut %d: parameter %s diverged from monolithic training", cut, sp.Name)
			}
		}
	}
}

// TestSimulationDeterminism is invariant #4: identical seeds produce
// identical final weights and identical virtual-time traces.
func TestSimulationDeterminism(t *testing.T) {
	run := func() (*Deployment, *SimResult) {
		ds := smallData(t, 80, 11)
		shards, err := data.PartitionDirichlet(ds, 2, 0.5, mathx.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := NewDeployment(Config{
			Model: smallModel(), Cut: 1, Clients: 2, Seed: 99,
			BatchSize: 8, LR: 0.05,
		}, shards)
		if err != nil {
			t.Fatal(err)
		}
		paths := make([]*simnet.Path, 2)
		for i := range paths {
			p, err := simnet.NewSymmetricPath(
				simnet.Uniform{Lo: time.Millisecond, Hi: 10 * time.Millisecond}, 0,
				mathx.NewRNG(uint64(55+i)))
			if err != nil {
				t.Fatal(err)
			}
			paths[i] = p
		}
		sim, err := NewSimulation(dep, SimConfig{Paths: paths, MaxStepsPerClient: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return dep, res
	}
	depA, resA := run()
	depB, resB := run()
	if resA.VirtualDuration != resB.VirtualDuration {
		t.Fatalf("virtual durations differ: %v vs %v", resA.VirtualDuration, resB.VirtualDuration)
	}
	pa := append(depA.Clients[0].Stack.Params(), depA.Server.Stack.Params()...)
	pb := append(depB.Clients[0].Stack.Params(), depB.Server.Stack.Params()...)
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value, 0) {
			t.Fatalf("parameter %s differs between identical runs", pa[i].Name)
		}
	}
}

// TestPayloadBytesHonoursWireDType: on a bandwidth-limited link the
// simulation charges a float32 payload 4 bytes per element, half of what
// the same payload costs as float64, so float32 deployments get their
// bandwidth credit in virtual time.
func TestPayloadBytesHonoursWireDType(t *testing.T) {
	act := tensor.New(8, 4, 4, 4)
	m64 := &transport.Message{Type: transport.MsgActivation, Payload: act.Clone()}
	m32 := &transport.Message{Type: transport.MsgActivation, Payload: act.Clone().SetDType(tensor.Float32)}
	b64, b32 := payloadBytes(m64), payloadBytes(m32)
	if b64-b32 != 4*act.Size() {
		t.Fatalf("float64 payload %d bytes, float32 %d: want a difference of %d (4 bytes per element)", b64, b32, 4*act.Size())
	}
	const bw = 1 << 20 // bytes per second
	link, err := simnet.NewLink(simnet.Constant{}, bw, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	d64, d32 := link.Delay(b64), link.Delay(b32)
	if want := time.Duration(float64(4*act.Size()) / bw * float64(time.Second)); d64-d32 < want-time.Microsecond || d64-d32 > want+time.Microsecond {
		t.Fatalf("float32 payload arrives %v sooner, want %v", d64-d32, want)
	}
}

// TestWireDTypeIsEncodingOnly pins the precision contract: Config.DType
// selects the wire encoding and nothing else. Two same-seed simulated
// deployments, one shipping float32 frames, train to bitwise-identical
// parameters because compute is float64 either way; the float32
// deployment tags its activation and gradient payloads Float32, and
// those encode to shorter (TSL2) messages than the float64 (TSL1) ones.
func TestWireDTypeIsEncodingOnly(t *testing.T) {
	run := func(dtype string) *Deployment {
		ds := smallData(t, 64, 21)
		shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := NewDeployment(Config{
			Model: smallModel(), Cut: 1, Clients: 2, Seed: 17,
			BatchSize: 8, LR: 0.05, DType: dtype,
		}, shards)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulation(dep, SimConfig{Paths: constPaths(2, 5*time.Millisecond), MaxStepsPerClient: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return dep
	}
	d64, d32 := run(""), run("float32")
	if d64.Server.Steps() == 0 || d64.Server.Steps() != d32.Server.Steps() {
		t.Fatalf("server steps: float64 %d, float32 %d", d64.Server.Steps(), d32.Server.Steps())
	}
	params := func(d *Deployment) []*nn.Param {
		var ps []*nn.Param
		for _, c := range d.Clients {
			ps = append(ps, c.Stack.Params()...)
		}
		return append(ps, d.Server.Stack.Params()...)
	}
	p64, p32 := params(d64), params(d32)
	for i := range p64 {
		a, b := p64[i].Value.Data(), p32[i].Value.Data()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("parameter %s[%d]: float64 run %v, float32-wire run %v", p64[i].Name, j, a[j], b[j])
			}
		}
	}

	// One more exchange on each deployment: the payloads carry the wire
	// tag, and the tag alone decides the encoded size.
	exchange := func(d *Deployment) (act, grad *transport.Message) {
		act, err := d.Clients[0].ProduceBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Server.Enqueue(act, 0); err != nil {
			t.Fatal(err)
		}
		grad, ok, err := d.Server.ProcessNext(0)
		if err != nil || !ok {
			t.Fatalf("ProcessNext: ok=%v err=%v", ok, err)
		}
		return act, grad
	}
	encodedLen := func(m *transport.Message) int {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	act64, grad64 := exchange(d64)
	act32, grad32 := exchange(d32)
	for _, c := range []struct {
		name     string
		m64, m32 *transport.Message
	}{{"activation", act64, act32}, {"gradient", grad64, grad32}} {
		if got := c.m64.Payload.DType(); got != tensor.Float64 {
			t.Errorf("float64 deployment %s dtype %v", c.name, got)
		}
		if got := c.m32.Payload.DType(); got != tensor.Float32 {
			t.Errorf("float32 deployment %s dtype %v", c.name, got)
		}
		if n64, n32 := encodedLen(c.m64), encodedLen(c.m32); n32 >= n64 {
			t.Errorf("%s encodes to %d bytes at float32, %d at float64; want shorter", c.name, n32, n64)
		}
	}
}

func TestSimulationRespectsBudgets(t *testing.T) {
	ds := smallData(t, 64, 13)
	shards, err := data.PartitionIID(ds, 3, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 3, Seed: 7, BatchSize: 4, LR: 0.01,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(dep, SimConfig{
		Paths:             constPaths(3, time.Millisecond),
		MaxStepsPerClient: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, steps := range res.StepsPerClient {
		if steps != 4 {
			t.Fatalf("client %d contributed %d steps, want 4", i, steps)
		}
	}
	if res.ServerSteps != 12 {
		t.Fatalf("server processed %d, want 12", res.ServerSteps)
	}
}

// TestTemporalBiasUnderFIFO reproduces the §II phenomenon: with a far
// client and a virtual-time limit, FIFO lets near clients contribute far
// more updates, while sync-rounds equalises contributions.
func TestTemporalBiasUnderFIFO(t *testing.T) {
	build := func(policy string) *SimResult {
		ds := smallData(t, 120, 17)
		shards, err := data.PartitionIID(ds, 3, mathx.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := NewDeployment(Config{
			Model: smallModel(), Cut: 1, Clients: 3, Seed: 21,
			BatchSize: 4, LR: 0.01, QueuePolicy: policy,
		}, shards)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(d time.Duration, seed uint64) *simnet.Path {
			p, err := simnet.NewSymmetricPath(simnet.Constant{D: d}, 0, mathx.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		paths := []*simnet.Path{
			mk(time.Millisecond, 1),     // near
			mk(time.Millisecond, 2),     // near
			mk(100*time.Millisecond, 3), // far
		}
		sim, err := NewSimulation(dep, SimConfig{
			Paths:     paths,
			TimeLimit: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fifo := build("fifo")
	if fifo.StepsPerClient[0] < 5*fifo.StepsPerClient[2] {
		t.Fatalf("FIFO: near client %d steps vs far %d — expected strong skew",
			fifo.StepsPerClient[0], fifo.StepsPerClient[2])
	}

	sync := build("sync-rounds")
	diff := sync.StepsPerClient[0] - sync.StepsPerClient[2]
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("sync-rounds: contributions not equalised: %v", sync.StepsPerClient)
	}
}

func TestDeploymentEvaluate(t *testing.T) {
	ds := smallData(t, 60, 19)
	shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 2, Seed: 3, BatchSize: 8, LR: 0.05,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	test := smallData(t, 40, 23)
	mean, accs, err := dep.EvaluateMean(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 {
		t.Fatalf("per-client accs = %v", accs)
	}
	if mean < 0 || mean > 1 {
		t.Fatalf("mean accuracy %v out of [0,1]", mean)
	}
	if _, err := dep.Evaluate(5, test); err == nil {
		t.Fatal("bad client index accepted")
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	ds := smallData(t, 16, 29)
	if _, err := NewDeployment(Config{Model: smallModel(), Clients: 2}, []*data.Dataset{ds}); err == nil {
		t.Fatal("shard/client mismatch accepted")
	}
	if _, err := NewDeployment(Config{Model: smallModel(), Optimizer: "lbfgs"}, []*data.Dataset{ds}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	if _, err := NewDeployment(Config{Model: smallModel(), QueuePolicy: "magic"}, []*data.Dataset{ds}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSimConfigValidation(t *testing.T) {
	ds := smallData(t, 16, 31)
	dep, err := NewDeployment(Config{Model: smallModel()}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulation(dep, SimConfig{}); err == nil {
		t.Fatal("no paths accepted")
	}
	if _, err := NewSimulation(dep, SimConfig{Paths: constPaths(1, 0)}); err == nil {
		t.Fatal("missing stop condition accepted")
	}
	if _, err := NewSimulation(nil, SimConfig{Paths: constPaths(1, 0), MaxStepsPerClient: 1}); err == nil {
		t.Fatal("nil deployment accepted")
	}
}

func TestCutZeroSendsRawData(t *testing.T) {
	// cut=0 is the paper's "Nothing (all layers in the server)" row: the
	// activation payload equals the raw batch — no privacy.
	ds := smallData(t, 16, 37)
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 0, Clients: 1, Seed: 1, BatchSize: 4, LR: 0.01,
	}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := dep.Clients[0].ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	s := msg.Payload.Shape()
	if s[1] != 3 || s[2] != 8 || s[3] != 8 {
		t.Fatalf("cut=0 payload shape %v is not raw input", s)
	}
}
