package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional, ordered, reliable message channel between one
// end-system and the server. Implementations must allow concurrent Send
// and Recv from different goroutines.
type Conn interface {
	// Send transmits a message. It may block on backpressure.
	Send(m *Message) error
	// Recv blocks for the next message; it returns ErrClosed after the
	// peer closes and all buffered messages are drained.
	Recv() (*Message, error)
	// Close releases the connection. Close is idempotent.
	Close() error
}

// chanConn is one endpoint of an in-memory duplex connection.
type chanConn struct {
	send chan<- *Message
	recv <-chan *Message

	// checksum records the Checksummer setting. Messages cross by
	// pointer — there is no wire to corrupt or protect — so the flag
	// changes nothing here; it exists so wrappers (FaultCarrier's
	// corrupt emulation) and tests can observe the configured framing.
	checksum atomic.Bool

	// mu is held shared by every Send for its whole duration and taken
	// exclusively by Close before it closes the outbound channel, so a
	// Send never races the close of the channel it sends on.
	mu        sync.RWMutex
	closeOnce sync.Once
	closedCh  chan struct{} // closed by Close; unblocks local Send/Recv
	closeOut  func()
}

// NewPair returns the two endpoints of an in-memory connection. Messages
// sent on one endpoint are received by the other, in order. buffer sets
// the per-direction channel capacity (0 gives rendezvous semantics; 1 is
// the usual choice per the style guide).
//
// Close on an endpoint unblocks both that endpoint's own pending
// Send/Recv and, once the buffer drains, the peer's Recv — so a server
// can force a session open on either kind of carrier to terminate.
func NewPair(buffer int) (Conn, Conn) {
	ab := make(chan *Message, buffer)
	ba := make(chan *Message, buffer)
	var onceAB, onceBA sync.Once
	a := &chanConn{send: ab, recv: ba, closedCh: make(chan struct{}),
		closeOut: func() { onceAB.Do(func() { close(ab) }) }}
	b := &chanConn{send: ba, recv: ab, closedCh: make(chan struct{}),
		closeOut: func() { onceBA.Do(func() { close(ba) }) }}
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	select {
	case <-c.closedCh:
		return ErrClosed
	default:
	}
	select {
	case c.send <- m:
		return nil
	case <-c.closedCh:
		return ErrClosed
	}
}

// Recv implements Conn. Messages buffered before a local Close are still
// delivered; the closed path only wins once nothing is immediately
// readable.
func (c *chanConn) Recv() (*Message, error) {
	select {
	case m, ok := <-c.recv:
		if !ok {
			return nil, ErrClosed
		}
		return m, nil
	default:
	}
	select {
	case m, ok := <-c.recv:
		if !ok {
			return nil, ErrClosed
		}
		return m, nil
	case <-c.closedCh:
		return nil, ErrClosed
	}
}

// SetChecksum implements Checksummer. See the checksum field: a no-op
// beyond recording the preference.
func (c *chanConn) SetChecksum(on bool) { c.checksum.Store(on) }

// Close implements Conn. Closing closedCh first releases any Send
// blocked on a full channel, so the exclusive lock that follows waits
// only for in-flight Sends to return.
func (c *chanConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.mu.Lock()
		c.closeOut()
		c.mu.Unlock()
	})
	return nil
}

var _ Conn = (*chanConn)(nil)
