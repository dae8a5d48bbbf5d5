package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

func activationMsg(r *mathx.RNG, client, seq int) *Message {
	n := 2
	return &Message{
		Type:     MsgActivation,
		ClientID: client,
		Seq:      seq,
		Epoch:    1,
		SentAt:   123 * time.Millisecond,
		Payload:  tensor.Randn(r, 1, n, 4, 3, 3),
		Labels:   []int{0, 7},
	}
}

func TestMessageValidate(t *testing.T) {
	r := mathx.NewRNG(1)
	good := activationMsg(r, 0, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    Message
	}{
		{"activation without payload", Message{Type: MsgActivation, Labels: []int{1}}},
		{"activation without labels", Message{Type: MsgActivation, Payload: tensor.New(1, 2)}},
		{"activation batch/label mismatch", Message{Type: MsgActivation, Payload: tensor.New(3, 2), Labels: []int{0}}},
		{"gradient without payload", Message{Type: MsgGradient}},
		{"unknown type", Message{Type: 99}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); err == nil {
				t.Fatal("invalid message accepted")
			}
		})
	}
	// Control message needs nothing.
	if err := (&Message{Type: MsgControl, Note: "hello"}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	r := mathx.NewRNG(2)
	msgs := []*Message{
		activationMsg(r, 3, 17),
		{Type: MsgGradient, ClientID: 1, Seq: 5, Payload: tensor.Randn(r, 1, 2, 8), SentAt: time.Second},
		{Type: MsgControl, Note: "done", ClientID: 2},
		{Type: MsgControl}, // fully empty control
	}
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("msg %d encode: %v", i, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("msg %d decode: %v", i, err)
		}
		if got.Type != m.Type || got.ClientID != m.ClientID || got.Seq != m.Seq ||
			got.Epoch != m.Epoch || got.SentAt != m.SentAt || got.Note != m.Note {
			t.Fatalf("msg %d header mismatch: %+v vs %+v", i, got, m)
		}
		if (got.Payload == nil) != (m.Payload == nil) {
			t.Fatalf("msg %d payload presence mismatch", i)
		}
		if m.Payload != nil && !got.Payload.Equal(m.Payload, 0) {
			t.Fatalf("msg %d payload mismatch", i)
		}
		if len(got.Labels) != len(m.Labels) {
			t.Fatalf("msg %d labels mismatch", i)
		}
		for j := range m.Labels {
			if got.Labels[j] != m.Labels[j] {
				t.Fatalf("msg %d label %d mismatch", i, j)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("garbage data stream right here"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncation mid-payload.
	r := mathx.NewRNG(3)
	var buf bytes.Buffer
	if err := activationMsg(r, 0, 0).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		n := 1 + r.Intn(4)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(10)
		}
		m := &Message{
			Type:     MsgActivation,
			ClientID: r.Intn(100),
			Seq:      r.Intn(10000),
			Epoch:    r.Intn(100),
			SentAt:   time.Duration(r.Intn(1e9)),
			Payload:  tensor.Randn(r, 1, n, 1+r.Intn(8), 1+r.Intn(4), 1+r.Intn(4)),
			Labels:   labels,
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return got.Payload.Equal(m.Payload, 0) && got.Seq == m.Seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPairDelivery(t *testing.T) {
	a, b := NewPair(1)
	r := mathx.NewRNG(4)
	want := activationMsg(r, 1, 2)
	done := make(chan error, 1)
	go func() { done <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || !got.Payload.Equal(want.Payload, 0) {
		t.Fatal("pair delivered wrong message")
	}
}

func TestPairOrdering(t *testing.T) {
	a, b := NewPair(16)
	for i := 0; i < 10; i++ {
		if err := a.Send(&Message{Type: MsgControl, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != i {
			t.Fatalf("message %d arrived out of order (seq %d)", i, m.Seq)
		}
	}
}

func TestPairCloseSemantics(t *testing.T) {
	a, b := NewPair(1)
	if err := a.Send(&Message{Type: MsgControl, Note: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered message still drains.
	if m, err := b.Recv(); err != nil || m.Note != "x" {
		t.Fatalf("drain after close: %v %v", m, err)
	}
	// Then ErrClosed.
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Send on closed side fails.
	if err := a.Send(&Message{Type: MsgControl}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed on send, got %v", err)
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPairCloseDuringSend closes an endpoint while other goroutines are
// sending on it, as a server shutdown does while its workers still
// deliver replies: every Send must return (nil before the close, or
// ErrClosed), and under -race the close must not race the sends.
func TestPairCloseDuringSend(t *testing.T) {
	for round := 0; round < 50; round++ {
		a, b := NewPair(1)
		go func() { // a reader, so some sends complete
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if err := a.Send(&Message{Type: MsgControl}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		a.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: Send during Close returned %v, want ErrClosed", round, err)
			}
		}
		b.Close()
	}
}

func TestPairRejectsInvalidMessage(t *testing.T) {
	a, _ := NewPair(1)
	if err := a.Send(&Message{Type: MsgActivation}); err == nil {
		t.Fatal("invalid message sent")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	r := mathx.NewRNG(5)
	want := activationMsg(r, 7, 42)

	serverDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			serverDone <- err
			return
		}
		// Echo a gradient back.
		serverDone <- conn.Send(&Message{
			Type: MsgGradient, ClientID: m.ClientID, Seq: m.Seq,
			Payload: m.Payload,
		})
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgGradient || reply.Seq != want.Seq || !reply.Payload.Equal(want.Payload, 0) {
		t.Fatal("TCP round trip corrupted message")
	}
}

func TestTCPManyMessages(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 50
	serverDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				serverDone <- err
				return
			}
			if m.Seq != i {
				serverDone <- errors.New("out of order")
				return
			}
		}
		serverDone <- nil
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := mathx.NewRNG(6)
	for i := 0; i < n; i++ {
		if err := c.Send(activationMsg(r, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}
