package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/paramsync"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/transport"
)

// normPayload is a payload whose L2 norm is exactly n.
func normPayload(n float64) []float64 { return []float64{n} }

// TestSanitizerNaNQuarantine: a non-finite payload quarantines its
// client immediately — no warmup, no suspicion ramp.
func TestSanitizerNaNQuarantine(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	v, score, why := z.check(1, []float64{1, math.NaN(), 3})
	if v != sanitizeQuarantine || score != 3 || why == "" {
		t.Fatalf("NaN payload: verdict=%v score=%v why=%q, want immediate quarantine at limit", v, score, why)
	}
	if v, _, _ := z.check(2, []float64{1, math.Inf(1)}); v != sanitizeQuarantine {
		t.Fatalf("Inf payload: verdict=%v, want quarantine", v)
	}
}

// TestSanitizerWarmup: before the envelope holds sanitizeWarmup accepted
// norms, no outlier verdicts are issued — an honest early client with an
// unusual first batch must not be flagged by a noise-level std estimate.
func TestSanitizerWarmup(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < sanitizeWarmup; i++ {
		norm := 1.0
		if i == 2 {
			norm = 1000 // weird, but the envelope is still warming up
		}
		if v, _, why := z.check(i, normPayload(norm)); v != sanitizeOK {
			t.Fatalf("sample %d during warmup: verdict=%v (%s), want OK", i, v, why)
		}
	}
}

// TestSanitizerOutlierEscalation: after warmup, norm bombs raise
// suspicion by one per rejected payload and quarantine at the limit —
// and the rejected norms never enter the envelope, so the bomber cannot
// stretch it until bombs look normal.
func TestSanitizerOutlierEscalation(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < 10; i++ {
		if v, _, _ := z.check(i%5, normPayload(1+0.01*float64(i))); v != sanitizeOK {
			t.Fatalf("clean sample %d rejected", i)
		}
	}
	const bomber = 9
	v1, s1, why := z.check(bomber, normPayload(1e6))
	if v1 != sanitizeReject || s1 != 1 || !strings.Contains(why, "outside envelope") {
		t.Fatalf("bomb 1: verdict=%v score=%v why=%q, want reject at suspicion 1", v1, s1, why)
	}
	if v2, s2, _ := z.check(bomber, normPayload(1e6)); v2 != sanitizeReject || s2 != 2 {
		t.Fatalf("bomb 2: verdict=%v score=%v, want reject at suspicion 2", v2, s2)
	}
	if v3, s3, _ := z.check(bomber, normPayload(1e6)); v3 != sanitizeQuarantine || s3 != 3 {
		t.Fatalf("bomb 3: verdict=%v score=%v, want quarantine at the limit", v3, s3)
	}
	// The envelope was not polluted: healthy traffic still passes, and a
	// fresh bomber's first bomb is still an outlier.
	if v, _, _ := z.check(1, normPayload(1.02)); v != sanitizeOK {
		t.Fatal("healthy norm rejected after the bombing run")
	}
	if v, _, _ := z.check(8, normPayload(1e6)); v != sanitizeReject {
		t.Fatal("rejected bombs leaked into the envelope — a later bomb passed as normal")
	}
}

// TestSanitizerSuspicionDecay: clean payloads halve suspicion, and below
// 0.25 the client is forgotten — a transient glitch is not a permanent
// mark.
func TestSanitizerSuspicionDecay(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < 10; i++ {
		z.check(i%5, normPayload(1))
	}
	const client = 7
	if v, _, _ := z.check(client, normPayload(1e6)); v != sanitizeReject {
		t.Fatal("outlier not rejected")
	}
	for _, want := range []float64{0.5, 0.25, 0} {
		v, score, _ := z.check(client, normPayload(1))
		if v != sanitizeOK || score != want {
			t.Fatalf("clean sample after glitch: verdict=%v score=%v, want OK at %v", v, score, want)
		}
	}
	if _, tracked := z.suspicion[client]; tracked {
		t.Fatal("fully decayed client still tracked")
	}
}

// TestPoolFailureContainment: a replica sync that cannot produce finite
// parameters under plain Average degrades the service instead of
// panicking — the healthy replicas are checkpointed, the failure is
// visible in the snapshot, and admission refuses new sessions with
// RetryLater.
func TestPoolFailureContainment(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	var mu sync.Mutex
	var saved [][]*core.Server
	sink := func(srvs []*core.Server) error {
		mu.Lock()
		defer mu.Unlock()
		saved = append(saved, append([]*core.Server(nil), srvs...))
		return nil
	}
	srv := startServer(t, dep, Config{
		Workers: 2, NewReplica: dep.NewServerReplica, Checkpoint: sink,
	})
	reps := srv.Replicas()
	reps[1].Stack.Params()[0].Value.Data()[0] = math.NaN()

	err := srv.syncReplicas()
	if !errors.Is(err, paramsync.ErrNonFinite) {
		t.Fatalf("sync over a poisoned replica: %v, want ErrNonFinite", err)
	}
	srv.failPool(err)

	snap := srv.Snapshot()
	if snap.PoolErr == "" || !strings.Contains(snap.PoolErr, "non-finite") {
		t.Fatalf("snapshot PoolErr = %q, want the sync failure", snap.PoolErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(saved) != 1 {
		t.Fatalf("failPool wrote %d checkpoints, want 1", len(saved))
	}
	if len(saved[0]) != 1 || saved[0][0] != reps[0] {
		t.Fatalf("checkpoint persisted %d replicas, want only the healthy one", len(saved[0]))
	}
	srv.mu.Lock()
	code, why := srv.admissionLocked()
	srv.mu.Unlock()
	if code != transport.RefusalRetryLater || why != "model pool failed" {
		t.Fatalf("admission after pool failure: (%v, %q), want RetryLater/model pool failed", code, why)
	}
	// failPool is once-only: a second failure neither re-checkpoints nor
	// overwrites the original cause.
	srv.failPool(errors.New("later failure"))
	if len(saved) != 1 {
		t.Fatal("second failPool wrote another checkpoint")
	}
	if got := srv.Snapshot().PoolErr; !strings.Contains(got, "non-finite") {
		t.Fatalf("second failPool overwrote the cause: %q", got)
	}
}

// TestRobustSyncHealsPoisonedReplica: under a robust aggregation rule
// the same poisoned replica is dropped from the aggregate and then
// overwritten by the fan-out — the pool self-heals instead of failing.
func TestRobustSyncHealsPoisonedReplica(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{
		Workers: 2, NewReplica: dep.NewServerReplica, Aggregate: paramsync.MethodTrimmed,
	})
	reps := srv.Replicas()
	reps[1].Stack.Params()[0].Value.Data()[0] = math.NaN()

	if err := srv.syncReplicas(); err != nil {
		t.Fatalf("robust sync over a poisoned replica: %v, want self-heal", err)
	}
	for i, rep := range reps {
		if !paramsync.Finite(rep.Stack.Params()) {
			t.Fatalf("replica %d still non-finite after robust sync", i)
		}
	}
	var a, b bytes.Buffer
	if err := reps[0].Stack.SaveWeights(&a); err != nil {
		t.Fatal(err)
	}
	if err := reps[1].Stack.SaveWeights(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("healed replica does not match the surviving consensus")
	}
}

// TestHostileFleetChaos is the integrity acceptance gate: 8 clients on
// the wire-framed pipe transport with checksummed framing, a corrupting
// network in both directions, one client uploading NaN from its first
// batch and one turning into a norm-bomb mid-run. The defense must
// compose: corrupted frames are detected and resent (never trained on),
// both hostile clients end quarantined, every healthy client still
// trains its exact budget, and the converged loss stays within ±10% of
// the fault-free simulation.
func TestHostileFleetChaos(t *testing.T) {
	const (
		clients    = 8
		steps      = 12
		nanClient  = 6
		bombClient = 7
	)
	// The reference trains only the honest clients' budget (clients
	// 0–5 × steps), not the whole fleet's: the live server lands nothing
	// from the NaN client and just the norm bomb's first 4 uploads, so a
	// full-fleet reference would average a later loss window than the
	// live run's by construction.
	ref := chaosDeployment(t, clients)
	ref.Clients = ref.Clients[:nanClient]
	reference := faultFreeLoss(t, ref, steps)
	dep := chaosDeployment(t, clients)
	reg := obs.NewRegistry()

	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: steps,
		Transport:      TransportPipe,
		GradTimeout:    30 * time.Second,
		Checksum:       true,
		Cluster: Config{
			Sanitize: true,
			Obs:      reg,
		},
		// A corrupting network on both directions of the first four
		// clients' paths: gradients flipped on the way down, activations
		// flipped on the way up (the server-side carrier corrupts its
		// receives).
		Faults: func(i int) simnet.FaultSchedule {
			if i >= 4 {
				return nil
			}
			return simnet.NewFaults(simnet.FaultPlan{Seed: uint64(100 + i), CorruptEveryRecvs: 5})
		},
		ServerFaults: func(i int) simnet.FaultSchedule {
			if i >= 4 {
				return nil
			}
			return simnet.NewFaults(simnet.FaultPlan{Seed: uint64(200 + i), CorruptEveryRecvs: 6})
		},
		WrapClient: func(i int, conn transport.Conn) transport.Conn {
			switch i {
			case nanClient:
				// Broken from the start: every upload is NaN.
				return transport.NewHostileCarrier(conn, transport.PoisonNaN, 0, 0)
			case bombClient:
				// Degrades mid-run, after the fleet envelope warmed up on
				// its honest traffic.
				return transport.NewHostileCarrier(conn, transport.PoisonScale, 4, 1e6)
			}
			return conn
		},
	})
	// The hostile clients' sessions end in quarantine, so the run as a
	// whole reports an error — that error must be the quarantine, not a
	// hung queue or a poisoned model.
	if err == nil {
		t.Fatal("hostile fleet run reported no error — quarantine never fired")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("run error is not the quarantine: %v", err)
	}
	if res == nil {
		t.Fatal("no result alongside the expected quarantine error")
	}

	if res.Snapshot.Quarantined != 2 {
		t.Fatalf("quarantined %d clients, want exactly the 2 hostile ones", res.Snapshot.Quarantined)
	}
	if got := reg.Counter("stsl_quarantined_total", nil).Value(); got != 2 {
		t.Errorf("stsl_quarantined_total = %d, want 2", got)
	}
	if res.Snapshot.CorruptFrames == 0 {
		t.Error("server detected no corrupt frames despite a corrupting network")
	}
	if got := reg.Counter("stsl_corrupt_frames_total", nil).Value(); got == 0 {
		t.Error("stsl_corrupt_frames_total = 0, want > 0")
	}
	if res.CorruptFrames == 0 {
		t.Error("clients detected no corrupt frames despite corrupted gradients")
	}

	// Exactly-once for every healthy client: detected corruption was
	// recovered by resend + dedup, not skipped and not double-trained.
	for i := 0; i < clients; i++ {
		if i == nanClient || i == bombClient {
			continue
		}
		if res.StepsPerClient[i] != steps {
			t.Errorf("healthy client %d trained %d steps, want exactly %d", i, res.StepsPerClient[i], steps)
		}
	}
	if res.StepsPerClient[nanClient] != 0 {
		t.Errorf("NaN client trained %d steps — poison reached the model", res.StepsPerClient[nanClient])
	}

	if res.FinalLoss <= 0 {
		t.Fatalf("degenerate loss %v", res.FinalLoss)
	}
	gap := math.Abs(res.FinalLoss-reference) / reference
	t.Logf("loss: fault-free sim %.4f, hostile fleet %.4f (gap %.1f%%); corrupt frames server=%d client=%d",
		reference, res.FinalLoss, gap*100, res.Snapshot.CorruptFrames, res.CorruptFrames)
	if gap > 0.10 {
		t.Fatalf("hostile-fleet loss %.4f deviates %.1f%% from fault-free %.4f (tolerance 10%%)",
			res.FinalLoss, gap*100, reference)
	}
}
