package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/transport"
)

// TestJoinStormAdmissionControl is the overload acceptance gate: a join
// storm of 3× MaxSessions clients hits the server at once. Admission
// control must refuse the overflow with RetryAfter hints, /healthz must
// stay responsive throughout, the refused clients must back off with
// decorrelated jitter (no synchronized retry spike) and get admitted as
// earlier sessions drain — and the training result must match the
// fault-free simulation within the usual ±10%, because admission control
// defers work but never loses or double-trains a batch.
func TestJoinStormAdmissionControl(t *testing.T) {
	const (
		clients     = 9
		maxSessions = 3
		steps       = 6
	)
	reference := faultFreeLoss(t, chaosDeployment(t, clients), steps)

	dep := chaosDeployment(t, clients)
	srv := startServer(t, dep, Config{
		MaxSessions:    maxSessions,
		ResumeGrace:    10 * time.Second,
		RetryAfterHint: 5 * time.Millisecond,
	})

	// Health poller: hammer the endpoint for the storm's whole duration;
	// it must never block behind the accept path or a busy worker.
	stopHealth := make(chan struct{})
	healthDone := make(chan struct{})
	var healthCalls atomic.Int64
	var healthMax atomic.Int64
	var badState atomic.Value // first non-OK HealthState seen, if any
	go func() {
		defer close(healthDone)
		for {
			select {
			case <-stopHealth:
				return
			default:
			}
			begin := time.Now()
			h := srv.Health()
			if d := time.Since(begin); d > time.Duration(healthMax.Load()) {
				healthMax.Store(int64(d))
			}
			if !h.OK() {
				// degraded/stopped mid-storm would be a gate misfire — no
				// shed-gate thresholds are configured in this test.
				badState.CompareAndSwap(nil, string(h.State))
			}
			healthCalls.Add(1)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	dial := func() (transport.Conn, error) {
		client, server := transport.NewPair(1)
		srv.Attach(server)
		return client, nil
	}
	results := make([]*ClientResult, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, _ := dial()
			res, err := RunClient(context.Background(), dep.Clients[i], conn, ClientConfig{
				Steps:            steps,
				GradTimeout:      20 * time.Second,
				Dial:             dial,
				MaxReconnects:    50,
				ReconnectBackoff: 5 * time.Millisecond,
				BackoffSeed:      uint64(1000 + i),
				RetryBudget:      64,
				RetryRefill:      256,
			})
			conn.Close()
			results[i] = res
			errs <- err
		}()
	}
	wg.Wait()
	close(stopHealth)
	<-healthDone
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("storm client failed: %v", err)
		}
	}
	if s := badState.Load(); s != nil {
		t.Fatalf("health reported %q during the storm; want ready/live throughout", s)
	}

	// Every refused client must eventually have been admitted and
	// finished its full budget, exactly once per batch.
	snap := srv.Snapshot()
	if snap.ServerSteps != clients*steps {
		t.Fatalf("server processed %d batches, want exactly %d", snap.ServerSteps, clients*steps)
	}
	if snap.Refused == 0 {
		t.Fatalf("9 simultaneous joins against a cap of %d produced no refusals — admission control is not engaging", maxSessions)
	}
	totalRefused := 0
	for _, res := range results {
		totalRefused += res.Refused
	}
	if totalRefused == 0 {
		t.Fatal("no client recorded a refusal wait")
	}

	// The health endpoint stayed live and cheap during the storm.
	if healthCalls.Load() < 20 {
		t.Fatalf("health poller managed only %d calls during the storm", healthCalls.Load())
	}
	if d := time.Duration(healthMax.Load()); d > time.Second {
		t.Fatalf("a Health() call blocked for %v during the storm", d)
	}
	// Slots must drain back to zero once the last Done is processed.
	waitFor(t, func() bool {
		h := srv.Health()
		return h.State == HealthReady && h.Sessions == 0
	})

	// Decorrelated jitter: pool every post-refusal retry timestamp and
	// check the cohort did not re-arrive as one spike. A synchronized
	// cohort lands in a single 2ms bucket; jittered draws spread out.
	var retries []time.Duration
	for _, res := range results {
		if len(res.JoinAttempts) > 1 {
			retries = append(retries, res.JoinAttempts[1:]...)
		}
	}
	if len(retries) == 0 {
		t.Fatal("refusals recorded but no retry join attempts — JoinAttempts instrumentation broken")
	}
	if len(retries) >= 4 {
		buckets := map[int64]int{}
		maxBucket := 0
		for _, at := range retries {
			b := int64(at / (2 * time.Millisecond))
			buckets[b]++
			if buckets[b] > maxBucket {
				maxBucket = buckets[b]
			}
		}
		t.Logf("storm: %d refusals, %d retries across %d 2ms-buckets (max bucket %d)",
			totalRefused, len(retries), len(buckets), maxBucket)
		if len(buckets) < 2 {
			t.Fatalf("all %d retry attempts landed in one 2ms bucket — retries are synchronized", len(retries))
		}
		if maxBucket > (len(retries)+1)/2 {
			t.Fatalf("%d of %d retry attempts share one 2ms bucket — jitter is not decorrelating the cohort",
				maxBucket, len(retries))
		}
	}

	// Convergence parity with the fault-free simulation.
	finalLoss := dep.Server.Losses.Last()
	gap := math.Abs(finalLoss-reference) / reference
	t.Logf("loss: fault-free sim %.4f, storm live %.4f (gap %.1f%%); %d refusals, %d retry joins",
		reference, finalLoss, gap*100, snap.Refused, len(retries))
	if gap > 0.10 {
		t.Fatalf("storm loss %.4f deviates %.1f%% from fault-free %.4f (tolerance 10%%)",
			finalLoss, gap*100, reference)
	}
}

// TestRefusalWithoutDialIsTyped: a refused one-shot client (no Dial)
// cannot retry, so RunClient must surface the typed overload error for
// errors.Is — the contract the load generator's refusal-rate metric and
// any caller-side fallback logic key on.
func TestRefusalWithoutDialIsTyped(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{MaxSessions: 1, ResumeGrace: 10 * time.Second})

	// Fill the only slot with a manual join that never leaves.
	holder, holderSide := transport.NewPair(1)
	srv.Attach(holderSide)
	if err := holder.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := holder.Recv(); err != nil || msg.Note != core.WelcomeNote {
		t.Fatalf("holder join: msg=%v err=%v", msg, err)
	}
	defer holder.Close()

	late, lateSide := transport.NewPair(1)
	srv.Attach(lateSide)
	_, err := RunClient(context.Background(), dep.Clients[1], late, ClientConfig{
		Steps: 1, GradTimeout: 5 * time.Second,
	})
	late.Close()
	if err == nil {
		t.Fatal("join beyond the session cap succeeded")
	}
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("refusal error %v does not match ErrServerOverloaded", err)
	}
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("overload refusal %v must also match the broader ErrRetryLater", err)
	}
}

// TestSlowLorisPreJoinTimeout: a connection that never introduces itself
// must be cut loose by the handshake deadline — the janitor only scans
// joined sessions, so without this timer a slow-loris of silent
// connections would pin session loops forever.
func TestSlowLorisPreJoinTimeout(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{
		StragglerTimeout: 100 * time.Millisecond,
		ResumeGrace:      time.Millisecond, // loris carcasses must not linger parked
	})

	// Three silent connections attach and say nothing.
	lorises := make([]transport.Conn, 3)
	for i := range lorises {
		c, serverSide := transport.NewPair(1)
		srv.Attach(serverSide)
		lorises[i] = c
	}
	// A healthy client trains through the attack.
	healthy, healthySide := transport.NewPair(1)
	srv.Attach(healthySide)
	const steps = 3
	res, err := RunClient(context.Background(), dep.Clients[0], healthy, ClientConfig{
		Steps: steps, GradTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("healthy client failed during slow-loris: %v", err)
	}
	if res.Steps != steps {
		t.Fatalf("healthy client finished %d steps, want %d", res.Steps, steps)
	}
	// Each silent connection must be closed by the server side.
	for i, c := range lorises {
		done := make(chan error, 1)
		go func(c transport.Conn) {
			_, err := c.Recv()
			done <- err
		}(c)
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("loris %d received a message instead of a hangup", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("loris %d still connected long past the handshake deadline", i)
		}
		c.Close()
	}
}

// TestStalledReaderEvicted: a client that uploads work and then stops
// draining its socket must not wedge the worker fleet. With SendTimeout
// set, the blocked reply write trips the deadline, the staller is
// evicted, and other clients keep training.
func TestStalledReaderEvicted(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{
		SendTimeout: 100 * time.Millisecond,
		ResumeGrace: 0, // a stall is an eviction, not a park
	})

	// The staller speaks the wire protocol over an unbuffered pipe: the
	// server's reply write genuinely blocks until someone reads.
	clientNC, serverNC := net.Pipe()
	staller := transport.NewTCPConn(clientNC)
	srv.Attach(transport.NewTCPConn(serverNC))
	if err := staller.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 1, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := staller.Recv(); err != nil || msg.Note != core.WelcomeNote {
		t.Fatalf("staller join: msg=%v err=%v", msg, err)
	}
	batch, err := dep.Clients[1].ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := staller.Send(batch); err != nil {
		t.Fatal(err)
	}
	// ... and now the staller never reads again.

	// A healthy client must finish despite the worker briefly blocking
	// on the staller's reply.
	healthy, healthySide := transport.NewPair(1)
	srv.Attach(healthySide)
	const steps = 3
	res, err := RunClient(context.Background(), dep.Clients[0], healthy, ClientConfig{
		Steps: steps, GradTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("healthy client failed behind a stalled reader: %v", err)
	}
	if res.Steps != steps {
		t.Fatalf("healthy client finished %d steps, want %d", res.Steps, steps)
	}

	waitFor(t, func() bool {
		for _, c := range srv.Snapshot().Clients {
			if c.ID == 1 {
				return c.Err != "" && strings.Contains(c.Err, "stalled")
			}
		}
		return false
	})
	staller.Close()
}

// TestDeadlineShedRollsBackAndReports: with a WorkDeadline so tight no
// queued item can make it, an uploaded batch must be shed un-served —
// the client told to resend via an expired notice, the dedup watermark
// rolled back so the resend is not mistaken for a duplicate, and the
// shed visible in both Snapshot and the Prometheus exposition.
func TestDeadlineShedRollsBackAndReports(t *testing.T) {
	reg := obs.NewRegistry()
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{
		WorkDeadline: time.Nanosecond,
		Obs:          reg,
	})

	conn, serverSide := transport.NewPair(1)
	srv.Attach(serverSide)
	if err := conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(); err != nil || msg.Note != core.WelcomeNote {
		t.Fatalf("join: msg=%v err=%v", msg, err)
	}
	batch, err := dep.Clients[0].ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(batch); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Note != core.ExpiredNote || reply.Code != transport.RefusalExpired {
		t.Fatalf("shed batch got note %q code %v, want %q/%v",
			reply.Note, reply.Code, core.ExpiredNote, transport.RefusalExpired)
	}
	if reply.Seq != batch.Seq {
		t.Fatalf("expired notice names seq %d, want %d", reply.Seq, batch.Seq)
	}
	snap := srv.Snapshot()
	if snap.Shed == 0 {
		t.Fatal("Snapshot.Shed is zero after a deadline shed")
	}
	if snap.ServerSteps != 0 {
		t.Fatalf("server trained %d shed batches", snap.ServerSteps)
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, "stsl_queue_expired_total") && !strings.HasSuffix(line, " 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stsl_queue_expired_total not exported non-zero:\n%s", expo.String())
	}
	conn.Close()
}
