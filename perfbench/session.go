package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/transport"
)

// countingConn counts the bytes that cross the benchmark's side of a
// loopback connection, in both directions.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

func (c *countingConn) bytes() int64 { return c.in.Load() + c.out.Load() }

// stepRec is one completed step: activation send to gradient received,
// in nanoseconds since the run's time base.
type stepRec struct{ sent, recv int64 }

// session is one replay connection driven by one goroutine.
type session struct {
	id   int
	cc   *countingConn
	conn transport.Conn
	tr   *tracer // nil on untraced runs

	steps     []stepRec
	attempted int
	failed    int
	problem   string
	// dataBytes counts the wire bytes of the data steps only (no join
	// or leave frames); frames counts Send and Recv calls of those steps.
	dataBytes int64
	frames    int
	// done counts completed steps; the window reads it while the
	// session runs.
	done atomic.Int64
}

func dialSession(addr string, id int) (*session, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial session %d: %w", id, err)
	}
	s := &session{id: id, cc: &countingConn{Conn: nc}}
	s.conn = transport.NewTCPConn(s.cc)
	if err := s.conn.Send(&transport.Message{Type: transport.MsgControl, ClientID: id, Note: core.JoinNote}); err != nil {
		s.conn.Close()
		return nil, fmt.Errorf("session %d join: %w", id, err)
	}
	reply, err := s.conn.Recv()
	if err != nil {
		s.conn.Close()
		return nil, fmt.Errorf("session %d welcome: %w", id, err)
	}
	if reply.Type != transport.MsgControl || reply.Note != core.WelcomeNote {
		s.conn.Close()
		return nil, fmt.Errorf("session %d join answered with %v %q", id, reply.Type, reply.Note)
	}
	return s, nil
}

// leave announces completion, as a finished end-system does.
func (s *session) leave() error {
	return s.conn.Send(&transport.Message{Type: transport.MsgControl, ClientID: s.id, Note: core.DoneNote})
}

// checkReply is the per-step correctness gate: the reply to an
// activation must be a gradient for the same client and seq, shaped like
// the activation, with finite values. A refusal, rejection, expiry or
// abort arrives as a control message and fails the step.
func checkReply(sent, reply *transport.Message) error {
	if reply == nil {
		return errors.New("no reply")
	}
	if reply.Type != transport.MsgGradient {
		return fmt.Errorf("seq %d answered with %v %q", sent.Seq, reply.Type, reply.Note)
	}
	if reply.ClientID != sent.ClientID || reply.Seq != sent.Seq {
		return fmt.Errorf("gradient for client %d seq %d, want client %d seq %d",
			reply.ClientID, reply.Seq, sent.ClientID, sent.Seq)
	}
	if reply.Payload == nil || !reply.Payload.SameShape(sent.Payload) {
		var got []int
		if reply.Payload != nil {
			got = reply.Payload.Shape()
		}
		return fmt.Errorf("seq %d gradient shape %v, want %v", sent.Seq, got, sent.Payload.Shape())
	}
	for i, v := range reply.Payload.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("seq %d gradient value %d is %v", sent.Seq, i, v)
		}
	}
	return nil
}

// replay drives the closed loop until stop is set: send the next
// recorded activation, wait for its gradient, check it, repeat. A failed
// step ends the session; the run reports it.
func (s *session) replay(frames []*transport.Message, base time.Time, stop *atomic.Bool) {
	start := s.cc.bytes()
	defer func() { s.dataBytes = s.cc.bytes() - start }()
	for seq := 0; !stop.Load(); seq++ {
		m := *frames[seq%len(frames)]
		m.Seq = seq
		sent := time.Since(base)
		m.SentAt = sent
		step := s.tr.begin("step", s.id, seq)
		sp := s.tr.child("transport.send")
		err := s.conn.Send(&m)
		s.tr.end(sp)
		s.attempted++
		if err != nil {
			s.tr.end(step)
			s.fail(fmt.Errorf("send seq %d: %w", seq, err))
			return
		}
		reply, err := s.conn.Recv()
		recv := time.Since(base)
		s.tr.end(step)
		s.frames += 2
		if err == nil {
			err = checkReply(&m, reply)
		}
		if err != nil {
			s.fail(err)
			return
		}
		s.steps = append(s.steps, stepRec{int64(sent), int64(recv)})
		s.done.Add(1)
	}
}

func (s *session) fail(err error) {
	s.failed++
	s.problem = fmt.Sprintf("session %d: %v", s.id, err)
}

// checkedConn wraps a real end-system's connection (train-small) with
// the same per-step gate and latency record the replay sessions keep.
// cluster.RunClient calls Send from its own goroutine and Recv from a
// receive pump, so the state is locked.
type checkedConn struct {
	transport.Conn
	base time.Time
	// onWarm, when set, is called once the connection has completed
	// warmSteps steps.
	warmSteps int
	onWarm    func()

	mu       sync.Mutex
	inflight *transport.Message // last activation sent, awaiting its gradient
	sentAt   int64
	steps    []stepRec
	failed   int
	problem  string
	frames   int
	sendNs   int64
	sends    int
}

func (c *checkedConn) Send(m *transport.Message) error {
	if m.Type == transport.MsgActivation {
		c.mu.Lock()
		// A resend of the in-flight batch restarts its clock, as the
		// client's own round-trip histogram does.
		c.inflight = &transport.Message{Type: m.Type, ClientID: m.ClientID, Seq: m.Seq, Payload: m.Payload}
		c.sentAt = int64(time.Since(c.base))
		c.frames++
		c.mu.Unlock()
	}
	t0 := time.Now()
	err := c.Conn.Send(m)
	d := time.Since(t0)
	c.mu.Lock()
	c.sendNs += int64(d)
	c.sends++
	c.mu.Unlock()
	return err
}

func (c *checkedConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	now := int64(time.Since(c.base))
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case m.Type == transport.MsgGradient:
		c.frames++
		if c.inflight == nil || m.Seq != c.inflight.Seq {
			// A duplicate answer to a resend; the client drops it.
			return m, nil
		}
		if gerr := checkReply(c.inflight, m); gerr != nil {
			c.failed++
			c.problem = gerr.Error()
		} else {
			c.steps = append(c.steps, stepRec{c.sentAt, now})
			if len(c.steps) == c.warmSteps && c.onWarm != nil {
				c.onWarm()
			}
		}
		c.inflight = nil
	case m.Type == transport.MsgControl && m.Note != core.WelcomeNote:
		// A rejection, expiry or abort of the batch in flight; the
		// client resends it, and the step counts as failed.
		if c.inflight != nil {
			c.failed++
			c.problem = fmt.Sprintf("seq %d answered with %q", c.inflight.Seq, m.Note)
		}
	}
	return m, nil
}
