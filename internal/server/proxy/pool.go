package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/server"
)

// clientPool is a lazily dialed pool of pipelined clients to one
// backend. Unlike server.Pool (which dials eagerly and fails
// construction if the backend is down), a fleet proxy must come up —
// and stay up — with backends in any state, so slots here start nil
// and are dialed on first use and redialed after failures.
type clientPool struct {
	addr    string
	timeout time.Duration
	next    atomic.Uint32

	mu      sync.Mutex
	clients []*server.Client
	closed  bool
}

func newClientPool(addr string, size int, timeout time.Duration) *clientPool {
	if size <= 0 {
		size = 1
	}
	return &clientPool{addr: addr, timeout: timeout, clients: make([]*server.Client, size)}
}

// get returns the next connection round-robin, dialing the slot if it
// is empty or its previous connection failed. A dial error leaves the
// slot empty and surfaces to the caller (who counts it as a backend
// failure and fails over).
//
// The dial and its follow-up ping run outside the pool mutex — a slow
// backend must not stall every forwarder round-robining through the
// pool. The ping proves liveness: the connection actually serves
// requests, where a dial alone only proves a listener.
func (p *clientPool) get() (*server.Client, error) {
	i := int(p.next.Add(1)) % len(p.clients)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, server.ErrClientClosed
	}
	c := p.clients[i]
	p.mu.Unlock()
	if c != nil && !c.Broken() {
		return c, nil
	}
	fresh, err := server.DialTimeout(p.addr, p.timeout)
	if err != nil {
		return nil, err
	}
	if err := fresh.Ping(); err != nil {
		fresh.Close()
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		fresh.Close()
		return nil, server.ErrClientClosed
	}
	// Another goroutine may have repaired the slot while we dialed;
	// keep the winner and discard the duplicate.
	if cur := p.clients[i]; cur != nil && cur != c && !cur.Broken() {
		fresh.Close()
		return cur, nil
	} else if cur != nil {
		cur.Close()
	}
	p.clients[i] = fresh
	return fresh, nil
}

// close tears down every dialed connection; in-flight calls complete
// with errors (and are retried elsewhere by their owners).
func (p *clientPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for i, c := range p.clients {
		if c != nil {
			c.Close()
			p.clients[i] = nil
		}
	}
}
