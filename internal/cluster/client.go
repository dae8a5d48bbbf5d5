package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/overload"
	"github.com/stsl/stsl/internal/transport"
)

// Typed overload errors. Callers match them with errors.Is against
// RunClient's return to distinguish "the server is drowning" from a
// protocol failure — the load generator keys its refusal-rate metric on
// exactly this.
var (
	// ErrServerOverloaded marks a join refused by admission control: the
	// session cap is full or the shed gate is open. The refusal carries a
	// RetryAfter hint; with a Dial configured the client backs off and
	// retries on its own, so RunClient only returns this when it cannot
	// (no Dial) or will not (budget exhausted) keep trying.
	ErrServerOverloaded = errors.New("cluster: server overloaded")
	// ErrRetryLater marks any transient, hinted refusal — overload
	// refusals match it too, so it is the broad "worth retrying" class.
	ErrRetryLater = errors.New("cluster: server asked to retry later")
)

// ClientConfig parameterises one live end-system actor.
type ClientConfig struct {
	// Steps is the number of batches to contribute (required).
	Steps int
	// GradTimeout is the hard bound on waiting for any single gradient
	// (and for the join welcome) before declaring the server a straggler
	// (0 = wait forever). Once a few round trips have been observed the
	// client waits adaptively — an RTO-style SRTT + 4·RTTVAR window,
	// doubling per fire — and resends well before this bound; GradTimeout
	// remains the terminal backstop.
	GradTimeout time.Duration
	// RejectBackoff is the jitter floor of the pause before resending an
	// activation the server bounced for backpressure (default 2ms). When
	// the bounce carries a RetryAfter hint the pause is hint + jitter.
	RejectBackoff time.Duration
	// Dial, when non-nil, re-establishes a lost connection: the client
	// redials, resumes its session with the token issued at join, and
	// resends the in-flight batch — surviving link drops, frame
	// truncation, and server restarts. It also enables admission-refusal
	// retries: a refused join waits out the server's RetryAfter hint
	// (plus decorrelated jitter) and redials. nil keeps the original
	// fail-on-first-fault behaviour.
	Dial func() (transport.Conn, error)
	// MaxReconnects bounds reconnection attempts after connection losses
	// across the whole run (default 8 when Dial is set). Failed dials
	// count: a server that stays down exhausts the budget. Admission
	// refusals do NOT count — the server is alive and explicitly asked
	// for patience; those retries are bounded by RetryBudget instead.
	MaxReconnects int
	// ReconnectBackoff is the decorrelated-jitter floor of the pause
	// before each redial (default 5ms). Delays grow up to 100× the floor
	// and desynchronise a cohort of clients that failed together.
	ReconnectBackoff time.Duration
	// BackoffSeed seeds the jitter streams (0 derives one from the wall
	// clock and the end-system id). Fix it for reproducible retry traces.
	BackoffSeed uint64
	// RetryBudget is the token-bucket burst of retries (refusal waits,
	// adaptive resends) the client may spend ahead of the refill rate
	// (0 = default 8).
	RetryBudget float64
	// RetryRefill is the budget's refill rate in tokens/second (0 =
	// default 4; negative = no refill, a pure burst budget). A client out
	// of tokens waits for the next refill instead of retrying — this is
	// what keeps a refused cohort from amplifying the overload.
	RetryRefill float64
	// Now supplies protocol timestamps; nil uses a monotonic wall clock
	// started at the first batch.
	Now func() time.Duration
	// GradRTT, when non-nil, records the send→gradient-applied round
	// trip of every batch in seconds — queue wait, server compute, and
	// both wire legs, as this client experiences them. After a resend
	// (backpressure bounce, reconnect) the clock restarts at the resend,
	// so the histogram reflects delivery latency, not retry budgets.
	GradRTT *obs.Histogram
}

// ClientResult summarises one client's run.
type ClientResult struct {
	// Steps is the number of batches contributed (gradient applied).
	Steps int
	// Epochs is the number of completed local epochs.
	Epochs int
	// Rejected counts backpressure bounces that forced a resend.
	Rejected int
	// Reconnects counts redial attempts made after connection losses
	// (successful or not).
	Reconnects int
	// Refused counts admission refusals the client waited out and
	// retried (session cap, shed gate).
	Refused int
	// Resends counts batch retransmissions triggered by the adaptive
	// wait window or a deadline-shed notice — not backpressure bounces,
	// which Rejected counts.
	Resends int
	// JoinAttempts records the protocol timestamp every join attempt was
	// due at: first contact when it is sent, a retry at the moment its
	// backoff scheduled it (not when the sleeping goroutine happened to
	// wake). A cohort refused together should NOT retry together — the
	// join-storm chaos test asserts the decorrelated jitter spreads these
	// out.
	JoinAttempts []time.Duration
	// CorruptFrames counts inbound frames this client's receive pump
	// rejected on a CRC32C mismatch (and recovered from by resending).
	CorruptFrames int
}

// refusedError is a handshake rejection: the server answered, and the
// answer was no. Unlike a connection loss a redial alone cannot help —
// but a *hinted* refusal (overload, retry-later) is worth retrying after
// backing off, which retryable reports.
type refusedError struct {
	note       string
	code       transport.RefusalCode
	retryAfter time.Duration
}

func (e refusedError) Error() string { return "cluster: server refused session: " + e.note }

// Is maps refusal codes onto the package's typed errors so callers can
// errors.Is without reaching into the wire representation.
func (e refusedError) Is(target error) bool {
	switch target {
	case ErrServerOverloaded:
		return e.code == transport.RefusalOverloaded
	case ErrRetryLater:
		return e.code == transport.RefusalOverloaded || e.code == transport.RefusalRetryLater
	}
	return false
}

// retryable reports whether backing off and rejoining can succeed.
func (e refusedError) retryable() bool {
	return e.code == transport.RefusalOverloaded || e.code == transport.RefusalRetryLater
}

// errAwaitTimeout marks an await that gave up on its timer. The delivery
// loop tells the adaptive (RTO-derived) window — which triggers a
// budget-charged resend — apart from the hard GradTimeout, which stays
// terminal.
var errAwaitTimeout = errors.New("await timeout")

// connLostError marks a failure of the carrier itself — the class of
// error a redial can cure.
type connLostError struct{ error }

func (e connLostError) Unwrap() error { return e.error }

// pump decouples the network receive from the compute loop for one
// carrier. A new pump starts per (re)connection, so messages from a dead
// carrier can never leak into the resumed session.
type pump struct {
	conn transport.Conn
	in   chan *transport.Message
	errc chan error
	done chan struct{}
	once sync.Once
}

func startPump(conn transport.Conn, corrupt *atomic.Int64) *pump {
	p := &pump{
		conn: conn,
		in:   make(chan *transport.Message, 4),
		errc: make(chan error, 1),
		done: make(chan struct{}),
	}
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				if errors.Is(err, transport.ErrChecksum) {
					// A corrupted frame, caught by its CRC trailer with the
					// stream still in sync: count and keep receiving. The
					// adaptive wait window resends the in-flight batch if
					// the lost frame was its gradient.
					if corrupt != nil {
						corrupt.Add(1)
					}
					continue
				}
				select {
				case p.errc <- err:
				case <-p.done:
				}
				return
			}
			select {
			case p.in <- msg:
			case <-p.done:
				return
			}
		}
	}()
	return p
}

func (p *pump) stop() {
	p.once.Do(func() { close(p.done) })
	p.conn.Close()
}

// RunClient drives one end-system over a live connection: join
// handshake, then the lock-step produce → upload → await gradient →
// apply loop, then a done announcement. The network send/receive runs in
// a separate goroutine from the compute, so a slow or dead server is
// detected by the wait window (or ctx) instead of hanging the actor
// forever. With Dial configured the client is churn- and
// overload-tolerant: a lost connection is redialled and the session
// resumed by token; a refused join backs off with decorrelated jitter
// (honouring the server's RetryAfter hint and a retry token budget) and
// rejoins — the server's dedup-by-seq keeps every batch exactly-once
// through all of it.
func RunClient(ctx context.Context, es *core.EndSystem, conn transport.Conn, cfg ClientConfig) (*ClientResult, error) {
	if es == nil || conn == nil {
		return nil, fmt.Errorf("cluster: RunClient needs an end-system and a connection")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("cluster: RunClient needs positive steps, got %d", cfg.Steps)
	}
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	rejectBackoff := cfg.RejectBackoff
	if rejectBackoff <= 0 {
		rejectBackoff = 2 * time.Millisecond
	}
	maxReconnects := cfg.MaxReconnects
	if maxReconnects <= 0 && cfg.Dial != nil {
		maxReconnects = 8
	}
	reconnectBackoff := cfg.ReconnectBackoff
	if reconnectBackoff <= 0 {
		reconnectBackoff = 5 * time.Millisecond
	}
	seed := cfg.BackoffSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ uint64(es.ID)<<32 ^ uint64(es.ID)
	}
	refill := cfg.RetryRefill
	if refill == 0 {
		refill = 4
	}
	// The overload-control kit: jittered redial delays, a second
	// independent jitter stream for backpressure bounces, a token-bucket
	// retry budget, a breaker that honours the server's RetryAfter hints,
	// and an RTO estimator driving the adaptive gradient wait.
	joinJitter := overload.NewBackoff(reconnectBackoff, 0, seed)
	rejJitter := overload.NewBackoff(rejectBackoff, 0, seed^0x9e3779b97f4a7c15)
	budget := overload.NewBudget(cfg.RetryBudget, refill)
	breaker := overload.NewBreaker(overload.BreakerConfig{})
	rttMax := 30 * time.Second
	if cfg.GradTimeout > 0 {
		rttMax = cfg.GradTimeout
	}
	rtt := overload.NewRTTEstimator(time.Millisecond, rttMax)

	res := &ClientResult{}
	var token int // session credential from the welcome; 0 before join
	var corruptFrames atomic.Int64
	defer func() { res.CorruptFrames = int(corruptFrames.Load()) }()

	// The current pump, shared with the ctx hook so a blocked Send/Recv
	// on whichever carrier is live unblocks when the caller gives up.
	var mu sync.Mutex
	p := startPump(conn, &corruptFrames)
	setPump := func(np *pump) {
		mu.Lock()
		p = np
		mu.Unlock()
	}
	stop := context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		p.conn.Close()
	})
	defer stop()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		p.stop()
	}()

	sleep := func(d time.Duration) error {
		if d <= 0 {
			return nil
		}
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// spendRetry withdraws one retry token, waiting out the refill when
	// the burst is spent — throttling, not failing, is what keeps a
	// cohort of retrying clients from amplifying the overload that
	// bounced them. It fails only when the budget can never recover.
	spendRetry := func() error {
		for {
			n := now()
			if budget.Take(n) {
				return nil
			}
			at, ok := budget.NextAt(n)
			if !ok {
				return fmt.Errorf("cluster: client %d retry budget exhausted", es.ID)
			}
			if err := sleep(at - n + time.Millisecond); err != nil {
				return err
			}
		}
	}

	await := func(p *pump, timeout time.Duration) (*transport.Message, error) {
		var tc <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			tc = t.C
		}
		select {
		case msg := <-p.in:
			return msg, nil
		case err := <-p.errc:
			return nil, connLostError{fmt.Errorf("cluster: client %d connection lost: %w", es.ID, err)}
		case <-tc:
			return nil, fmt.Errorf("cluster: client %d timed out after %v awaiting server: %w",
				es.ID, timeout, errAwaitTimeout)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// send transmits on the current carrier, tagging any failure as a
	// connection loss — the messages are our own, so the only way a send
	// fails is the carrier dying under it.
	send := func(p *pump, m *transport.Message) error {
		if err := p.conn.Send(m); err != nil {
			return connLostError{fmt.Errorf("cluster: client %d send: %w", es.ID, err)}
		}
		return nil
	}
	// connLost reports whether err means the carrier died (redialling
	// can help) rather than the server answering badly or the caller
	// giving up.
	connLost := func(err error) bool {
		if err == nil || ctx.Err() != nil {
			return false
		}
		var lost connLostError
		return errors.As(err, &lost) || errors.Is(err, transport.ErrClosed)
	}

	// hello performs the join (first contact) or resume (token in hand)
	// handshake on a fresh carrier. due is the moment a retry's backoff
	// scheduled it for, or negative on first contact.
	hello := func(p *pump, due time.Duration) error {
		note, seq := core.JoinNote, 0
		if token != 0 {
			note, seq = core.ResumeNote, token
		}
		if note == core.JoinNote {
			// Recorded so the join-storm test can assert refused cohorts
			// retry desynchronised, not in lockstep. A retry records its
			// scheduled moment: a host that starves the process wakes
			// every sleeper at once, which says nothing of the schedule.
			if due < 0 {
				due = now()
			}
			res.JoinAttempts = append(res.JoinAttempts, due)
		}
		if err := send(p, &transport.Message{
			Type: transport.MsgControl, ClientID: es.ID, Note: note, Seq: seq, SentAt: now(),
		}); err != nil {
			return err
		}
		// On a resume the worker may scatter a queued reply onto the
		// swapped-in carrier before the session loop sends the welcome —
		// a gradient outrunning the handshake is acceptance, not
		// refusal. Skip such messages (bounded: the session serves at
		// most a handful of parked replies); the delivery loop recovers
		// any needed gradient from the server's reply cache by resending
		// the in-flight batch.
		for skipped := 0; ; skipped++ {
			welcome, err := await(p, cfg.GradTimeout)
			if err != nil {
				return err
			}
			if welcome.Type != transport.MsgControl {
				if skipped > 16 {
					return refusedError{note: fmt.Sprintf("no welcome within %d messages", skipped)}
				}
				continue
			}
			if welcome.Note != core.WelcomeNote {
				return refusedError{note: welcome.Note, code: welcome.Code, retryAfter: welcome.RetryAfter}
			}
			token = welcome.Seq
			breaker.Success()
			joinJitter.Reset()
			return nil
		}
	}

	// refusalWait spends the pause a hinted refusal demands: the server's
	// RetryAfter plus a decorrelated-jitter draw (additive, so a refused
	// cohort that shares a hint still spreads out), stretched to the
	// breaker's cooldown when repeated refusals have tripped it, and
	// charged against the retry budget. It returns the moment the retry
	// was scheduled for.
	refusalWait := func(ref refusedError) (time.Duration, error) {
		res.Refused++
		breaker.Failure(now(), ref.retryAfter)
		if err := spendRetry(); err != nil {
			return 0, fmt.Errorf("%w (last refusal: %s)", err, ref.note)
		}
		n := now()
		wait := ref.retryAfter + joinJitter.Next()
		if breaker.OpenUntil() > n+wait {
			wait = breaker.OpenUntil() - n
		}
		if err := sleep(wait); err != nil {
			return 0, err
		}
		breaker.Allow(now()) // open → half-open: the next hello is the probe
		return n + wait, nil
	}

	// redial replaces a carrier the server refused (it closes the
	// connection behind a refusal) with a fresh one and retries the
	// handshake. Unlike reconnect this does not charge MaxReconnects:
	// the server is alive and asked us to come back.
	redial := func(dead *pump, due time.Duration) error {
		dead.stop()
		c, err := cfg.Dial()
		if err != nil {
			return connLostError{fmt.Errorf("cluster: client %d redial: %w", es.ID, err)}
		}
		np := startPump(c, &corruptFrames)
		setPump(np)
		return hello(np, due)
	}

	// reconnect retires the dead carrier and redials until a handshake
	// succeeds or the attempt budget runs out.
	reconnect := func(dead *pump, cause error) error {
		if cfg.Dial == nil {
			return cause
		}
		dead.stop()
		lastErr := cause
		for res.Reconnects < maxReconnects {
			res.Reconnects++
			if err := spendRetry(); err != nil {
				return err
			}
			wait := joinJitter.Next()
			due := now() + wait
			if err := sleep(wait); err != nil {
				return err
			}
			c, err := cfg.Dial()
			if err != nil {
				lastErr = err
				continue
			}
			np := startPump(c, &corruptFrames)
			setPump(np)
			if err := hello(np, due); err != nil {
				var ref refusedError
				if errors.As(err, &ref) {
					// The server answered and said no. A terminal refusal
					// (bad token, done session) ends the run; a hinted one
					// propagates so recoverConn can wait it out without
					// charging this budget further.
					return err
				}
				np.stop()
				if ctx.Err() != nil {
					return ctx.Err()
				}
				lastErr = err
				continue
			}
			return nil
		}
		return fmt.Errorf("cluster: client %d gave up after %d reconnect attempts: %w",
			es.ID, res.Reconnects, lastErr)
	}
	// recoverConn funnels every recoverable failure — carrier deaths and
	// hinted refusals — through its cure until the handshake lands or the
	// error proves terminal. Only hinted refusals loop (each iteration
	// waits out a hint, so a shedding server is retried patiently, not
	// hammered); reconnect handles its own retries internally, so its
	// non-refusal errors are final.
	recoverConn := func(err error) error {
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var ref refusedError
			if errors.As(err, &ref) && ref.retryable() {
				if cfg.Dial == nil {
					// Cannot get a fresh carrier, so the hint is moot;
					// surface the typed refusal to the caller.
					return err
				}
				due, werr := refusalWait(ref)
				if werr != nil {
					return werr
				}
				if err = redial(p, due); err == nil {
					return nil
				}
				continue
			}
			if !connLost(err) || cfg.Dial == nil {
				return err
			}
			if err = reconnect(p, err); err == nil {
				return nil
			}
			if !errors.As(err, &ref) || !ref.retryable() {
				return err // budget exhausted, or the server said a terminal no
			}
			// A hinted refusal met during reconnect: loop to wait it out.
		}
	}

	// Join handshake (with full recovery — the very first exchange can
	// hit a fault or an overloaded server). recoverConn returns nil only
	// after a complete fresh handshake, so it must not be followed by
	// another hello: the server ignores handshake notes on an established
	// session and the client would hang awaiting a second welcome.
	if err := hello(p, -1); err != nil {
		if err = recoverConn(err); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Steps; i++ {
		msg, err := es.ProduceBatch(now())
		if err != nil {
			return res, fmt.Errorf("cluster: client %d produce step %d: %w", es.ID, i, err)
		}
		sendNeeded := true
		resent := false // Karn's rule: an RTT sample is only clean if the batch was sent exactly once
		scale := time.Duration(1)
		var sentAt time.Time
	delivery:
		for {
			if sendNeeded {
				if err := send(p, msg); err != nil {
					if err = recoverConn(err); err != nil {
						return res, fmt.Errorf("cluster: client %d send step %d: %w", es.ID, i, err)
					}
					resent = true
					continue // resumed on a fresh carrier; resend
				}
				sendNeeded = false
				sentAt = time.Now()
			}
			// Wait adaptively once the estimator has warmed up: an
			// RTO-style window (doubling per fire) resends long before
			// the hard GradTimeout would give up on a reply lost to a
			// shed or a dropped frame.
			wait, adaptive := cfg.GradTimeout, false
			if rtt.Samples() >= 3 {
				if aw := scale * rtt.Timeout(); cfg.GradTimeout <= 0 || aw < cfg.GradTimeout {
					wait, adaptive = aw, true
				}
			}
			reply, err := await(p, wait)
			if err != nil {
				if adaptive && errors.Is(err, errAwaitTimeout) {
					if berr := spendRetry(); berr != nil {
						return res, fmt.Errorf("cluster: client %d step %d: %w", es.ID, i, berr)
					}
					res.Resends++
					resent = true
					scale *= 2
					sendNeeded = true
					continue
				}
				if err = recoverConn(err); err != nil {
					return res, err
				}
				resent = true
				sendNeeded = true // the in-flight batch may be lost; resend
				continue
			}
			switch {
			case reply.Type == transport.MsgControl && reply.Note == core.RejectedNote:
				// Backpressure (or a brownout park): wait out the server's
				// hint plus jitter and resend the same batch.
				res.Rejected++
				if err := sleep(reply.RetryAfter + rejJitter.Next()); err != nil {
					return res, err
				}
				resent = true
				sendNeeded = true
			case reply.Type == transport.MsgControl && reply.Note == core.ExpiredNote:
				// The server shed the queued batch past its deadline and
				// rolled its watermark back; resend after the hinted pause.
				res.Resends++
				if err := sleep(reply.RetryAfter + rejJitter.Next()); err != nil {
					return res, err
				}
				resent = true
				sendNeeded = true
			case reply.Type == transport.MsgControl && reply.Note == core.WelcomeNote:
				// A duplicated welcome replayed by the network; ignore.
			case reply.Type == transport.MsgControl && strings.HasPrefix(reply.Note, core.AbortNote):
				return res, fmt.Errorf("cluster: client %d: server aborted: %s", es.ID, reply.Note)
			case reply.Type == transport.MsgControl:
				return res, fmt.Errorf("cluster: client %d: unexpected control %q", es.ID, reply.Note)
			case reply.Type != transport.MsgGradient:
				return res, fmt.Errorf("cluster: client %d: unexpected %v", es.ID, reply.Type)
			case !es.HasOutstanding() || reply.Seq != es.Outstanding():
				// A stale duplicate — the reply cache answering a resend
				// the worker also served, or a duplicating network.
				// Drop it and keep waiting for the right seq.
			default:
				if err := es.ApplyGradient(reply); err != nil {
					return res, fmt.Errorf("cluster: client %d apply step %d: %w", es.ID, i, err)
				}
				if cfg.GradRTT != nil {
					cfg.GradRTT.ObserveSince(sentAt)
				}
				if !resent {
					rtt.Observe(time.Since(sentAt))
				}
				break delivery
			}
		}
		res.Steps = es.Steps()
		res.Epochs = es.Epoch()
	}
	for {
		err := send(p, &transport.Message{
			Type: transport.MsgControl, ClientID: es.ID, Note: core.DoneNote, SentAt: now(),
		})
		if err == nil {
			return res, nil
		}
		if err = recoverConn(err); err != nil {
			return res, fmt.Errorf("cluster: client %d done: %w", es.ID, err)
		}
	}
}
