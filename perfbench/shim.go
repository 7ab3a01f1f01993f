package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/node"
	"pgrid/internal/wire"
)

const (
	kinds        = 64 // covers every wire.Kind
	framesToKeep = 64 // sampled frames per kind for the codec replay
)

// layerCounts sums the calls that crossed one layer boundary, by kind.
type layerCounts struct {
	calls [kinds]atomic.Int64
	ns    [kinds]atomic.Int64
}

func (l *layerCounts) reset() {
	for k := range l.calls {
		l.calls[k].Store(0)
		l.ns[k].Store(0)
	}
}

func (l *layerCounts) totals() (calls, ns int64) {
	for k := range l.calls {
		calls += l.calls[k].Load()
		ns += l.ns[k].Load()
	}
	return calls, ns
}

// shims holds the per-boundary counters of a traced community, and the
// frames sampled at the pool boundary for the codec replay.
type shims struct {
	on     atomic.Bool
	client layerCounts // calls the application's clients make into its stack
	node   layerCounts // calls a node makes (handlers, exchange initiator)
	res    layerCounts // calls entering ResilientTransport (below telemetry)
	pool   layerCounts // attempts entering PoolTransport (below resilience)

	clientBusy    atomic.Int64 // wall ns the workers' clients had a call outstanding
	queryMisses   atomic.Int64 // forwarded queries that failed or found nothing
	applies       atomic.Int64 // single-entry apply attempts answered
	appliesUseful atomic.Int64 // ... that changed the replica's store

	mu     sync.Mutex
	frames map[wire.Kind][]*wire.Message
}

func newShims() *shims { return &shims{frames: map[wire.Kind][]*wire.Message{}} }

// reset zeroes every counter (between the untraced and traced windows).
func (s *shims) reset() {
	for _, l := range []*layerCounts{&s.client, &s.node, &s.res, &s.pool} {
		l.reset()
	}
	s.clientBusy.Store(0)
	s.queryMisses.Store(0)
	s.applies.Store(0)
	s.appliesUseful.Store(0)
}

func (s *shims) keep(m *wire.Message) {
	s.mu.Lock()
	if len(s.frames[m.Kind]) < framesToKeep {
		s.frames[m.Kind] = append(s.frames[m.Kind], m)
	}
	s.mu.Unlock()
}

// shim is a Transport that times every call crossing one boundary of the
// stack. It adds one atomic load per call while the shims are off.
type shim struct {
	inner node.Transport
	layer *layerCounts
	sh    *shims
}

func (t *shim) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if !t.sh.on.Load() {
		return t.inner.Call(to, msg)
	}
	start := time.Now()
	resp, err := t.inner.Call(to, msg)
	d := time.Since(start)
	k := int(msg.Kind) % kinds
	t.layer.calls[k].Add(1)
	t.layer.ns[k].Add(int64(d))
	if t.layer == &t.sh.node && msg.Kind == wire.KindQuery && (err != nil || resp.QueryResp == nil || !resp.QueryResp.Found) {
		t.sh.queryMisses.Add(1)
	}
	if t.layer == &t.sh.pool && err == nil { // sample frames and store outcomes
		t.sh.keep(msg)
		t.sh.keep(resp)
		if resp.ApplyResp != nil {
			t.sh.applies.Add(1)
			if resp.ApplyResp.Changed {
				t.sh.appliesUseful.Add(1)
			}
		}
	}
	return resp, err
}

// busy sits above one worker's client shim and sums the wall time during
// which that client has at least one call outstanding. Publish fans its
// applies out concurrently, so the summed call time at the client shim can
// exceed the operation's own time; the busy time cannot. Calls never span
// a switch of the shims: the parts of a traced run do not overlap.
type busy struct {
	inner node.Transport
	sh    *shims
	mu    sync.Mutex
	open  int
	since time.Time
}

func (b *busy) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if !b.sh.on.Load() {
		return b.inner.Call(to, msg)
	}
	b.mu.Lock()
	if b.open == 0 {
		b.since = time.Now()
	}
	b.open++
	b.mu.Unlock()
	resp, err := b.inner.Call(to, msg)
	b.mu.Lock()
	if b.open--; b.open == 0 {
		b.sh.clientBusy.Add(int64(time.Since(b.since)))
	}
	b.mu.Unlock()
	return resp, err
}
