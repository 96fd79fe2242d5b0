package cluster

import (
	"fmt"
	"sync"
)

// Link is a unidirectional inter-server packet channel. Send copies
// the frame onto the wire (crossing servers is the one place NFP pays
// a full copy per packet — exactly once, per §7); Frames delivers
// received frames until the link closes.
type Link interface {
	Send(frame []byte) error
	Frames() <-chan []byte
	Close() error
}

// ChanLink is an in-memory link: a buffered channel of frame copies.
// It models the inter-server wire for tests and single-process
// simulations.
type ChanLink struct {
	ch     chan []byte
	mu     sync.Mutex
	closed bool
	sent   uint64
	bytes  uint64
}

// NewChanLink creates an in-memory link with the given queue depth.
func NewChanLink(depth int) *ChanLink {
	if depth <= 0 {
		depth = 1024
	}
	return &ChanLink{ch: make(chan []byte, depth)}
}

// Send implements Link.
func (l *ChanLink) Send(frame []byte) error {
	cp := append([]byte(nil), frame...)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("cluster: send on closed link")
	}
	l.sent++
	l.bytes += uint64(len(frame))
	l.mu.Unlock()
	l.ch <- cp
	return nil
}

// Frames implements Link.
func (l *ChanLink) Frames() <-chan []byte { return l.ch }

// Close implements Link.
func (l *ChanLink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	return nil
}

// Stats returns (frames, bytes) sent — the bandwidth meter proving the
// one-copy-per-hop property.
func (l *ChanLink) Stats() (frames, bytes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent, l.bytes
}
