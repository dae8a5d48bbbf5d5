package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/paramsync"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/transport"
)

// syncEvery is cluster.Config.SyncEvery's default, the pool cadence the
// layered pass reproduces.
const syncEvery = 16

// unexplainedLimit is the share of cluster.server_step_us that replay-small
// may leave unexplained by its layers before the report flags it.
const unexplainedLimit = 0.10

// runTraced is the per-layer run. It measures the live server untraced
// for a quarter of the window, traced (the server's registry and the
// sessions' spans on) for half, and untraced again for the last quarter,
// so a drift in machine speed during the run cancels out of the tracing
// overhead. Then it replays the same recorded frames through each
// layer's public calls in the order the server makes them.
func runTraced(w workload, seed uint64, seconds int) (*measurement, error) {
	m := newMeasurement()
	baseline := runtime.NumGoroutine()
	window := func(reg *obs.Registry, secs int) (*env, *live, error) {
		e, err := setup(w, seed, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		addr := e.lis.Addr()
		l := runLive(e, secs, reg != nil, 0)
		m.absorb(l)
		m.problems = append(m.problems, checkNoLeaks(baseline, addr)...)
		return e, l, nil
	}
	quarter, half := max(1, seconds/4), max(1, seconds/2)
	_, before, err := window(nil, quarter)
	if err != nil {
		return nil, err
	}
	e, traced, err := window(obs.NewRegistry(), half)
	if err != nil {
		return nil, err
	}
	_, after, err := window(nil, quarter)
	if err != nil {
		return nil, err
	}
	plainSamples := before.samples + after.samples
	plainWindow := (before.window + after.window).Seconds()
	plainSteps := before.steps + after.steps

	pass, err := layeredPass(e)
	if err != nil {
		return nil, fmt.Errorf("layered pass: %w", err)
	}
	m.problems = append(m.problems, pass.problems...)
	spans := appendSpans(traced.spans, pass.spans)
	if path, err := writeSpans(fmt.Sprintf("%s-seed%d", w.name, seed), spans); err != nil {
		m.problems = append(m.problems, fmt.Sprintf("write spans: %v", err))
	} else {
		m.notef("%d spans written to %s", len(spans), path)
	}

	mt := m.metrics
	for k, v := range pass.metrics {
		mt[k] = v
	}
	mt["error_rate"] = float64(m.failed) / float64(max(m.attempted, 1))
	untracedRate := plainSamples / plainWindow
	tracedRate := traced.samples / traced.window.Seconds()
	mt["trace.untraced_samples_per_s"] = untracedRate
	mt["trace.samples_per_s"] = tracedRate
	mt["trace.overhead_frac"] = 1 - tracedRate/untracedRate

	mt["transport.send_us"] = sendMicros(traced)
	mt["transport.bytes_per_step"] = traced.wireBytes
	mt["transport.frames_per_step"] = traced.frames
	mt["queue.wait_p50_ms"] = traced.queueP50 * 1e3
	mt["queue.wait_p99_ms"] = traced.queueP99 * 1e3
	mt["cluster.worker_busy_frac"] = traced.workerBusy / (traced.window.Seconds() * float64(w.workers))
	if traced.snap.ServerSteps > 0 {
		mt["cluster.syncs_per_1k_steps"] = 1000 * float64(traced.snap.Syncs) / float64(traced.snap.ServerSteps)
	}
	if e.sink != nil {
		n := e.sink.writes.Load()
		mt["core.ckpt_writes"] = float64(n)
		if n > 0 {
			mt["core.ckpt_write_ms"] = float64(e.sink.nanos.Load()) / float64(n) / 1e6
		}
		m.notef("checkpoint sink called %d times over %d server steps (CheckpointEvery 50)", n, traced.snap.ServerSteps)
	}
	if traced.train != nil {
		mt["cluster.client_resends"] = float64(traced.train.resends)
		mt["cluster.client_rejected"] = float64(traced.train.rejected)
	}
	if traced.steps > 0 {
		mt["runtime.alloc_bytes_per_step"] = traced.rt.allocBytes / float64(traced.steps)
		mt["runtime.allocs_per_step"] = traced.rt.allocObjects / float64(traced.steps)
	}
	if traced.cpu > 0 {
		mt["runtime.gc_cpu_frac"] = traced.rt.gcCPU / traced.cpu.Seconds()
	}

	// Stage accounting: the untraced server's time per step, split into
	// the layers' self times and what they leave unexplained.
	step := plainWindow * float64(w.workers) / float64(plainSteps) * 1e6
	stages := []struct {
		name string
		us   float64
	}{
		{"transport.decode_act", mt["transport.decode_act_us"]},
		{"queue.push_pop", mt["queue.push_pop_us"]},
		{"core.self", mt["core.self_ms"] * 1e3},
		{"nn.fwd", mt["nn.fwd_ms"] * 1e3},
		{"nn.bwd", mt["nn.bwd_ms"] * 1e3},
		{"opt.step", mt["opt.step_ms"] * 1e3},
		{"transport.encode_grad", mt["transport.encode_grad_us"]},
		{"paramsync (per step)", pass.syncPerStepUS},
	}
	explained := 0.0
	for _, s := range stages {
		explained += s.us
	}
	mt["cluster.server_step_us"] = step
	mt["cluster.unexplained_us"] = step - explained
	mt["cluster.unexplained_frac"] = (step - explained) / step
	m.notef("stage accounting (us per server step; shares of cluster.server_step_us = %.1f):", step)
	for _, s := range stages {
		m.notef("  %-24s %10.1f  %6.2f%%", s.name, s.us, 100*s.us/step)
	}
	m.notef("  %-24s %10.1f  %6.2f%%", "unexplained", step-explained, 100*(step-explained)/step)
	if w.name == "replay-small" && (step-explained)/step > unexplainedLimit {
		m.notef("FLAG: unexplained share %.1f%% exceeds %.0f%% on replay-small", 100*(step-explained)/step, 100*unexplainedLimit)
	}
	m.notef("tracing overhead: traced %.1f samples/s vs untraced %.1f samples/s (%.2f%%)",
		tracedRate, untracedRate, 100*mt["trace.overhead_frac"])
	return m, nil
}

// sendMicros is the mean time the benchmark's side spent in Conn.Send
// per step of the traced live window, in microseconds.
func sendMicros(l *live) float64 {
	if l.sendCount > 0 {
		return l.sendNanos / float64(l.sendCount) / 1e3
	}
	t := summarize(l.spans)["transport.send"]
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.total.Nanoseconds()) / float64(t.count) / 1e3
}

// passResult is the layered pass's per-layer metrics and spans.
type passResult struct {
	metrics       map[string]float64
	spans         []span
	problems      []string
	syncPerStepUS float64
}

// layeredPass replays the recorded frames through each layer's public
// calls in the order the server makes them: decode the activation, push
// and pop it through a queue.Safe, core.Server.ProcessBatch on a twin of
// the server built by Deployment.NewServerReplica (its layers and
// optimiser wrapped so their spans nest inside the process span), encode
// the gradient. On the pool every step alternates between two twins and
// every syncEvery steps they are averaged and fanned out with paramsync.
// On train-small the frames come from a twin end-system (ProduceBatch)
// and the gradients go back into it (ApplyGradient).
func layeredPass(e *env) (*passResult, error) {
	w := e.w
	tr := newTracer(time.Now())
	reps := make([]*core.Server, w.workers)
	for i := range reps {
		r, err := e.dep.NewServerReplica()
		if err != nil {
			return nil, err
		}
		if r.Stack, err = wrapStack(r.Stack, tr, "nn"); err != nil {
			return nil, err
		}
		r.Optim = &timedOpt{Optimizer: r.Optim, tr: tr, name: "opt.step"}
		reps[i] = r
	}
	var clients []*core.EndSystem
	if w.train {
		twin, err := core.NewDeployment(w.deploymentConfig(), e.shards)
		if err != nil {
			return nil, err
		}
		for _, es := range twin.Clients {
			if es.Stack, err = wrapStack(es.Stack, tr, "nn.client"); err != nil {
				return nil, err
			}
		}
		clients = twin.Clients
	}

	res := &passResult{metrics: map[string]float64{}}
	q := queue.NewSafe(queue.NewFIFO())
	var actBuf, gradBuf bytes.Buffer
	var codec []*transport.Message // frames for the allocation count
	var inShape []int
	seqs := make([]int, sessions)
	syncs := 0
	start := time.Now()
	steps := 0
	for ; steps < 2*recorded || time.Since(start) < time.Second; steps++ {
		c := steps % sessions
		seq := seqs[c]
		seqs[c]++
		now := time.Since(start)
		stepID := tr.begin("step", c, seq)
		var act *transport.Message
		if w.train {
			id := tr.child("core.produce")
			var err error
			act, err = clients[c].ProduceBatch(now)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		} else {
			f := *e.frames[c][seq%recorded]
			f.Seq, f.SentAt = seq, now
			act = &f
		}
		if inShape == nil {
			inShape = act.Payload.Shape()
		}
		id := tr.child("transport.encode_act")
		actBuf.Reset()
		err := act.Encode(&actBuf)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		in := new(transport.Message)
		id = tr.child("transport.decode_act")
		err = transport.DecodeInto(bytes.NewReader(actBuf.Bytes()), in)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.child("queue.push_pop")
		q.Push(queue.Item{Msg: in, ArrivedAt: now})
		items := q.PopBatch(now, 1)
		tr.end(id)
		id = tr.child("core.process")
		replies, err := reps[steps%len(reps)].ProcessBatch(items, now)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.child("transport.encode_grad")
		gradBuf.Reset()
		err = replies[0].Encode(&gradBuf)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		grad := new(transport.Message)
		id = tr.child("transport.decode_grad")
		err = transport.DecodeInto(bytes.NewReader(gradBuf.Bytes()), grad)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if err := checkReply(act, grad); err != nil {
			res.problems = append(res.problems, "layered pass: "+err.Error())
		}
		if w.train {
			id = tr.child("core.apply")
			err = clients[c].ApplyGradient(grad)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		if len(codec) < 16 {
			codec = append(codec, act, replies[0])
		}
		if len(reps) > 1 && (steps+1)%syncEvery == 0 {
			sets := make([][]*nn.Param, len(reps))
			for i, r := range reps {
				sets[i] = r.Stack.Params()
			}
			id = tr.child("paramsync.aggregate")
			err = paramsync.Aggregate(paramsync.MethodAverage, sets[0], sets, nil)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.child("paramsync.copy")
			for _, set := range sets[1:] {
				if err = paramsync.Copy(set, sets[0]); err != nil {
					break
				}
			}
			tr.end(id)
			if err != nil {
				return nil, err
			}
			syncs++
		}
		tr.end(stepID)
	}
	res.spans = tr.spans

	mt := res.metrics
	sum := summarize(tr.spans)
	perStep := func(name string, unit time.Duration) float64 {
		if t := sum[name]; t != nil {
			return float64(t.total) / float64(unit) / float64(steps)
		}
		return 0
	}
	for _, n := range []string{"encode_act", "decode_act", "encode_grad", "decode_grad"} {
		mt["transport."+n+"_us"] = perStep("transport."+n, time.Microsecond)
	}
	mt["queue.push_pop_us"] = perStep("queue.push_pop", time.Microsecond)
	mt["core.process_ms"] = perStep("core.process", time.Millisecond)
	if t := sum["core.process"]; t != nil {
		mt["core.self_ms"] = float64(t.own) / float64(time.Millisecond) / float64(steps)
	}
	mt["opt.step_ms"] = perStep("opt.step", time.Millisecond)
	var names []string
	for name := range sum {
		if strings.HasPrefix(name, "nn.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := perStep(name, time.Millisecond)
		mt[name+"_ms"] = v
		if !strings.HasPrefix(name, "nn.client.") {
			mt["nn."+name[strings.LastIndex(name, ".")+1:]+"_ms"] += v
		}
	}
	if w.train {
		mt["core.produce_ms"] = perStep("core.produce", time.Millisecond)
		mt["core.apply_ms"] = perStep("core.apply", time.Millisecond)
		us, err := batcherNextUS(e.shards[0], w.scale.BatchSize)
		if err != nil {
			return nil, err
		}
		mt["data.next_us"] = us
	}
	if syncs > 0 {
		agg, cp := sum["paramsync.aggregate"], sum["paramsync.copy"]
		mt["paramsync.aggregate_ms"] = float64(agg.total) / float64(time.Millisecond) / float64(syncs)
		mt["paramsync.copy_ms"] = float64(cp.total) / float64(time.Millisecond) / float64(syncs)
		res.syncPerStepUS = float64(agg.total+cp.total) / float64(time.Microsecond) / float64(steps)
	}
	flops, err := stackFlops(e.dep.Server.Stack, inShape[1:], inShape[0])
	if err != nil {
		return nil, err
	}
	mt["tensor.flops_per_step"] = flops
	if nnSec := (mt["nn.fwd_ms"] + mt["nn.bwd_ms"]) / 1e3; nnSec > 0 {
		mt["tensor.gflops"] = flops / nnSec / 1e9
	}
	if mt["transport.allocs_per_frame"], err = allocsPerFrame(codec); err != nil {
		return nil, err
	}
	return res, nil
}

// allocsPerFrame counts heap allocations per Message.Encode plus
// transport.DecodeInto into a fresh Message, the server's receive path.
func allocsPerFrame(frames []*transport.Message) (float64, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	var buf bytes.Buffer
	roundTrip := func() error {
		for _, f := range frames {
			buf.Reset()
			if err := f.Encode(&buf); err != nil {
				return err
			}
			var m transport.Message
			if err := transport.DecodeInto(bytes.NewReader(buf.Bytes()), &m); err != nil {
				return err
			}
		}
		return nil
	}
	// The first round sizes the buffer and fills the codec's pools.
	if err := roundTrip(); err != nil {
		return 0, err
	}
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps*len(frames)), nil
}

// batcherNextUS times data.Batcher.Next over a shard, in microseconds
// per batch.
func batcherNextUS(ds *data.Dataset, batch int) (float64, error) {
	b, err := data.NewBatcher(ds, batch, mathx.NewRNG(1))
	if err != nil {
		return 0, err
	}
	const calls = 200
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, ok := b.Next(); !ok {
			b.Next() // epoch boundary: the next call starts a new epoch
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / calls / 1e3, nil
}
