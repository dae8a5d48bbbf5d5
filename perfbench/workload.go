package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/transport"
)

// workload is one traffic mix. Every workload serves two sessions in a
// closed loop: a session sends its next batch only after the gradient for
// the previous one has arrived, as a lock-step end-system does. The
// reasons each one is in the benchmark are in BENCHMARK.json.
type workload struct {
	name  string
	scale expt.Scale
	// workers is cluster.Config.Workers; everything else about the
	// server, apart from lr below, is stsl-server's default flags.
	workers int
	// ckpt turns on stsl-server's -checkpoint-dir defaults: a
	// FileCheckpointer every 50 steps into a fresh directory per run.
	// On the pool the periodic writes never fire, because each sync
	// barrier (every 16 steps) zeroes the checkpoint countdown; the
	// benchmark keeps the defaults so core.ckpt_writes shows that.
	ckpt bool
	// train runs real end-systems (cluster.RunClient over
	// core.EndSystem) instead of replaying recorded activations.
	train bool
	// lr is stsl-server's -lr. The pool multiplies it by the worker
	// count (cluster.Config.LRScale defaults to Workers), so the pool
	// runs at -lr 0.025: each replica then trains at 0.05, the rate of
	// the single-worker workloads. At the default -lr 0.05 the pool's
	// replicas train at 0.1 and diverged on 2 of 10 seeds (107 and 110,
	// 20 s windows): the server returned NaN gradients, or a sync found
	// non-finite parameters and stopped the pool. That is a defect of
	// the linear LR scaling, left for its own fix.
	lr float64
}

var workloads = []workload{
	{name: "replay-small", scale: expt.SmallScale(), workers: 1, lr: 0.05},
	{name: "replay-tiny", scale: expt.TinyScale(), workers: 1, lr: 0.05},
	{name: "replay-small-pool", scale: expt.SmallScale(), workers: 2, ckpt: true, lr: 0.025},
	{name: "train-small", scale: expt.SmallScale(), workers: 1, train: true, lr: 0.05},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	sessions = 2
	// cut is stsl-server's default split point.
	cut = 1
	// replayNoise and trainNoise are the SynthCIFAR pixel noise. At the
	// default (0.08) held-out accuracy saturates at 1.0 and cannot guard
	// training quality. Training at the server's default learning rate
	// has loss spikes, so the accuracy of the model where a run happens
	// to stop swings with the seed unless training has reached a
	// plateau. A replay server (frozen lower layers, 32 recorded batches
	// per session, ~900-1300 steps in a window) plateaus at about 0.99
	// with replayNoise; at 0.3 it ends anywhere from 0.5 to 0.98.
	// train-small's step budget reaches about 0.95 with trainNoise.
	replayNoise = 0.2
	trainNoise  = 0.6
	// recorded is how many activation batches each replay session
	// records at setup and then cycles through.
	recorded = 32
	// testSize is the held-out set behind eval_accuracy.
	testSize = 500
	// trainShard is each train-small end-system's local dataset size.
	trainShard = 800
	// trainStepsPerSecond sets train-small's per-client step budget from
	// -seconds: the budget is fixed by the arguments, never by how fast
	// the code runs, so accuracy compares across commits.
	trainStepsPerSecond = 26
	// A run performs its set-up at least minSetups times and until the
	// set-ups have taken setupBudget; setup_s is the median and the last
	// set-up is the one measured.
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 2 * time.Second
	// minLatencySamples keeps at least ten step latencies beyond the
	// reported p99: a replay window runs past -seconds until it has this
	// many.
	minLatencySamples = 1010
)

// warmup runs before the measured window so caches, pools and the
// scheduler settle.
func warmup(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 10
}

// env is one set-up instance of a workload: the deployment, the live
// server on a loopback listener, and (for replay) the joined sessions.
type env struct {
	w      workload
	seed   uint64
	shards []*data.Dataset
	test   *data.Dataset
	dep    *core.Deployment
	frames [][]*transport.Message // replay: per-session recorded activations

	srv       *cluster.Server
	lis       *transport.Listener
	cancel    context.CancelFunc
	serveDone chan struct{}
	sess      []*session
	sink      *ckptSink
	tmp       string
	reg       *obs.Registry
	closed    bool
}

func seedFor(seed uint64, stream int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + 1
}

// deploymentConfig is the split-learning deployment every run builds.
// Weights come from stsl-server's and stsl-endsystem's default -seed 1,
// not from the run's seed: the run's seed generates the inputs only.
func (w workload) deploymentConfig() core.Config {
	return core.Config{
		Model:     w.scale.Model,
		Cut:       cut,
		Clients:   sessions,
		Seed:      1,
		BatchSize: w.scale.BatchSize,
		LR:        w.lr,
	}
}

func (w workload) genData(seed uint64) (shards []*data.Dataset, test *data.Dataset, err error) {
	m := w.scale.Model
	g := data.SynthCIFAR{Height: m.Height, Width: m.Width, Channels: m.InChannels, Noise: replayNoise, Classes: m.Classes}
	n := recorded * w.scale.BatchSize
	if w.train {
		g.Noise, n = trainNoise, trainShard
	}
	for i := 0; i < sessions; i++ {
		ds, err := g.Generate(n, seedFor(seed, i+1))
		if err != nil {
			return nil, nil, err
		}
		shards = append(shards, ds)
	}
	if test, err = g.Generate(testSize, seedFor(seed, 100)); err != nil {
		return nil, nil, err
	}
	// Each end-system standardises its own shard, as stsl-endsystem
	// does; the held-out set takes the first shard's statistics.
	means, stds := shards[0].Normalize()
	for _, ds := range shards[1:] {
		ds.Normalize()
	}
	test.ApplyNormalization(means, stds)
	return shards, test, nil
}

// record runs each end-system's lower stack over its own shard once and
// keeps the activation messages a lock-step client would send. Seq and
// SentAt are left zero; the replaying session stamps them per send.
func record(dep *core.Deployment) ([][]*transport.Message, error) {
	out := make([][]*transport.Message, len(dep.Clients))
	for i, es := range dep.Clients {
		for k := 0; k < recorded; k++ {
			b, ok := es.Batcher.Next()
			if !ok {
				return nil, fmt.Errorf("client %d shard ran out after %d batches", i, k)
			}
			act := es.Stack.Forward(b.X, false)
			out[i] = append(out[i], &transport.Message{
				Type:     transport.MsgActivation,
				ClientID: i,
				Payload:  act,
				Labels:   append([]int(nil), b.Y...),
			})
		}
	}
	return out, nil
}

// setup builds one instance of the workload. reg, when non-nil, is
// passed to the server as its telemetry registry (traced runs only).
func setup(w workload, seed uint64, reg *obs.Registry) (e *env, err error) {
	e = &env{w: w, seed: seed, reg: reg}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.shards, e.test, err = w.genData(seed); err != nil {
		return e, err
	}
	if e.dep, err = core.NewDeployment(w.deploymentConfig(), e.shards); err != nil {
		return e, err
	}
	if !w.train {
		if e.frames, err = record(e.dep); err != nil {
			return e, err
		}
	}
	// stsl-server with its default flags: fifo, queue-cap 64, park,
	// coalesce 1, resume-grace 30s; checksum, sanitize and telemetry off.
	cfg := cluster.Config{
		QueueCap:      64,
		Overflow:      cluster.OverflowPark,
		BatchCoalesce: 1,
		ResumeGrace:   30 * time.Second,
		Workers:       w.workers,
		Obs:           reg,
	}
	if w.workers > 1 {
		cfg.NewReplica = e.dep.NewServerReplica
	}
	if w.ckpt {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return e, err
		}
		if e.tmp, err = os.MkdirTemp(scratchDir, "ckpt-"); err != nil {
			return e, err
		}
		e.sink = &ckptSink{inner: cluster.FileCheckpointer(filepath.Join(e.tmp, "server.ckpt"))}
		cfg.Checkpoint = e.sink.write
		cfg.CheckpointEvery = 50
	}
	if e.srv, err = cluster.NewServer(e.dep.Server, cfg); err != nil {
		return e, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	if err = e.srv.Start(ctx); err != nil {
		return e, err
	}
	if e.lis, err = transport.Listen("127.0.0.1:0"); err != nil {
		return e, err
	}
	e.serveDone = make(chan struct{})
	go func() {
		defer close(e.serveDone)
		e.srv.ServeListener(e.lis)
	}()
	if !w.train {
		for i := 0; i < sessions; i++ {
			s, err := dialSession(e.lis.Addr(), i)
			if err != nil {
				return e, err
			}
			e.sess = append(e.sess, s)
		}
	}
	return e, nil
}

// scratchDir holds checkpoint directories and span dumps, inside the
// checkout the benchmark runs from.
const scratchDir = ".bench_build/run"

// close ends the sessions, waits for the server to see every client
// finish, shuts it down and waits for its listener goroutine.
func (e *env) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	for _, s := range e.sess {
		if err := s.leave(); err != nil {
			errs = append(errs, err)
		}
	}
	if e.srv != nil && len(e.sess) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.srv.AwaitClients(ctx, len(e.sess)); err != nil {
			errs = append(errs, fmt.Errorf("await clients: %w", err))
		}
		cancel()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		cancel()
	}
	if e.cancel != nil {
		e.cancel()
	}
	if e.serveDone != nil {
		<-e.serveDone
	} else if e.lis != nil {
		e.lis.Close()
	}
	for _, s := range e.sess {
		s.conn.Close()
	}
	if e.tmp != "" {
		if err := os.RemoveAll(e.tmp); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// setupMany repeats the set-up, closing all but the last instance, and
// returns the last with every set-up duration.
func setupMany(w workload, seed uint64, reg *obs.Registry) (*env, []float64, error) {
	var times []float64
	total := 0.0
	for i := 0; ; i++ {
		t0 := time.Now()
		e, err := setup(w, seed, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		if i+1 >= maxSetups || (i+1 >= minSetups && total >= setupBudget.Seconds()) {
			// The set-up's garbage would otherwise be collected inside
			// the measured window.
			runtime.GC()
			return e, times, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, fmt.Errorf("close set-up %d: %w", i, err)
		}
		debug.FreeOSMemory()
	}
}

// checkNoLeaks is the last correctness gate of a workload: every
// goroutine the run started has ended and the listener refuses
// connections.
func checkNoLeaks(baseline int, addr string) []string {
	var problems []string
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		problems = append(problems, fmt.Sprintf("%d goroutines outlived the workload (baseline %d):\n%s", n-baseline, baseline, buf))
	}
	if addr != "" {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			problems = append(problems, "listener "+addr+" still accepts connections")
		}
	}
	return problems
}
