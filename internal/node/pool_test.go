package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/resilience"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// startPooledCluster is startTCPCluster with the transport configured by
// cfg: n nodes, each served on a loopback listener, all routing their own
// traffic through one shared PoolTransport.
func startPooledCluster(t *testing.T, n int, cfg PoolConfig) ([]*Node, *PoolTransport, func()) {
	t.Helper()
	pt := NewPoolTransport(cfg)
	nodes := make([]*Node, n)
	servers := make([]*Server, n)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = New(addr.Addr(i), smallCfg(), pt, int64(2000+i))
		servers[i] = NewServer(nodes[i], ln)
		pt.SetEndpoint(addr.Addr(i), ln.Addr().String())
		go servers[i].Serve(ctx)
	}
	return nodes, pt, func() {
		cancel()
		for _, s := range servers {
			s.Close()
		}
		pt.Close()
	}
}

// startDroppingListener mimics an offline peer's Server: it accepts a
// connection, reads one frame and closes the connection unanswered. It
// counts the connections it accepted and the frames that did not open
// with the binary magic (a gob frame, say).
func startDroppingListener(t *testing.T) (ep string, accepts, nonBinary *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts, nonBinary = &atomic.Int64{}, &atomic.Int64{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				isBin, err := wire.IsBinaryFrame(br)
				if err == nil && !isBin {
					nonBinary.Add(1)
				}
				if isBin {
					wire.ReadFrame(br)
				}
			}()
		}
	}()
	return ln.Addr().String(), accepts, nonBinary
}

// TestPoolOfflinePeerCostsOneDial: a call to a peer whose server drops the
// connection after reading the request fails ErrOffline after exactly one
// dial, and nothing but the one binary request frame reaches the peer — no
// handshake connection and no second, differently encoded attempt.
func TestPoolOfflinePeerCostsOneDial(t *testing.T) {
	ep, accepts, nonBinary := startDroppingListener(t)
	pt := NewPoolTransport(PoolConfig{DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer pt.Close()
	pt.SetEndpoint(1, ep)

	_, err := pt.Call(1, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
	if !errors.Is(err, ErrOffline) {
		t.Fatalf("call to a dropping peer = %v, want ErrOffline wrap", err)
	}
	if Classify(err) != resilience.Transient {
		t.Fatalf("dropped call classified %v, want Transient", Classify(err))
	}
	if st := pt.Stats(); st.Dials != 1 || st.Open != 0 {
		t.Errorf("stats = %+v, want 1 dial and no open connection", st)
	}
	// Both counters are bumped before the listener closes a connection,
	// and the call cannot return before that close.
	if got := accepts.Load(); got != 1 {
		t.Errorf("peer accepted %d connections, want 1", got)
	}
	if got := nonBinary.Load(); got != 0 {
		t.Errorf("%d non-binary frames reached the peer", got)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	const calls = 20
	for i := 0; i < calls; i++ {
		resp, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
		if err != nil {
			t.Fatal(err)
		}
		if resp.InfoResp == nil || resp.InfoResp.Addr != 0 {
			t.Fatalf("call %d: %+v", i, resp)
		}
	}
	st := pt.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1 (every later call reuses)", st.Dials)
	}
	if st.Reuses != calls-1 {
		t.Errorf("reuses = %d, want %d", st.Reuses, calls-1)
	}
	if st.Open != 1 {
		t.Errorf("open = %d, want 1", st.Open)
	}
}

// TestPoolMultiplexesConcurrentCalls pins the core mux property: with
// Size 1, many concurrent callers share the single warm connection (no
// per-call dials) and every one of them gets its own response back.
func TestPoolMultiplexesConcurrentCalls(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 1})
	defer stop()

	e := store.Entry{Key: bitpath.MustParse("01"), Name: "x", Holder: 3, Version: 1}
	if !nodes[0].Store().Apply(e) {
		t.Fatal("seed apply failed")
	}
	// Warm the pool so the herd below can never be first-caller dials.
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := pt.Call(0, &wire.Message{Kind: wire.KindGet, From: addr.Nil,
					Get: &wire.GetReq{Key: e.Key, Name: "x"}})
				if err != nil {
					errs <- err
					return
				}
				if resp.GetResp == nil || !resp.GetResp.Found || resp.GetResp.Entry != e {
					errs <- fmt.Errorf("mux returned wrong payload: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pt.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1: %d concurrent calls must multiplex, not dial", st.Dials, workers*perWorker)
	}
	if st.Reuses != workers*perWorker {
		t.Errorf("reuses = %d, want %d", st.Reuses, workers*perWorker)
	}
}

// TestPoolGrowsToSizeUnderSaturation pins the Size semantics: when every
// pooled connection has requests in flight and the pool is below Size, a
// new connection is dialed; once the pool is at Size, calls share the busy
// connections round-robin and the cap is never exceeded.
func TestPoolGrowsToSizeUnderSaturation(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	// Warm the pool: one connection.
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	pp := pt.pool(0)
	pp.mu.Lock()
	if len(pp.conns) != 1 {
		pp.mu.Unlock()
		t.Fatalf("warm pool has %d conns, want 1", len(pp.conns))
	}
	first := pp.conns[0]
	pp.mu.Unlock()

	// Saturate the only connection: the next call must grow the pool.
	first.inflight.Add(1)
	defer first.inflight.Add(-1)
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	st := pt.Stats()
	if st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (saturated pool below Size grows)", st.Dials)
	}
	if st.Open != 2 {
		t.Errorf("open = %d, want 2", st.Open)
	}

	// Saturate both: the pool is at Size, so further calls reuse
	// round-robin instead of dialing past the cap.
	pp.mu.Lock()
	var second *muxConn
	for _, c := range pp.conns {
		if c != first {
			second = c
		}
	}
	pp.mu.Unlock()
	if second == nil {
		t.Fatal("second connection not pooled")
	}
	second.inflight.Add(1)
	defer second.inflight.Add(-1)
	for i := 0; i < 5; i++ {
		if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
	}
	if st := pt.Stats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (full pool must not exceed Size)", st.Dials)
	}
	if st := pt.Stats(); st.Open != 2 {
		t.Errorf("open = %d, want 2", st.Open)
	}
}

// TestPoolUnpooledMode: Size 0 is the dial-per-call A/B baseline.
func TestPoolUnpooledMode(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 0})
	defer stop()

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
			t.Fatal(err)
		}
	}
	st := pt.Stats()
	if st.Dials != calls || st.Reuses != 0 {
		t.Errorf("unpooled stats = %+v, want %d dials and 0 reuses", st, calls)
	}
	if st.Open != 0 {
		t.Errorf("unpooled mode left %d connections open", st.Open)
	}
}

// TestPoolConnDeathFailsTransient: a connection dying under in-flight
// requests fails them all with an ErrOffline-wrapped (Transient) error,
// and the next call recovers on a fresh dial.
func TestPoolConnDeathFailsTransient(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection on the next frame it reads.
	nodes[0].SetOnline(false)

	const callers = 8
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err == nil {
			t.Fatal("call to an offline peer succeeded")
		}
		if !errors.Is(err, ErrOffline) {
			t.Fatalf("conn death error = %v, want ErrOffline wrap", err)
		}
		if Classify(err) != resilience.Transient {
			t.Fatalf("conn death classified %v, want Transient", Classify(err))
		}
	}
	st := pt.Stats()
	if st.ConnLost == 0 {
		t.Error("no connection recorded as lost with requests in flight")
	}

	nodes[0].SetOnline(true)
	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatalf("pool did not recover after peer came back: %v", err)
	}
	if got := pt.Stats().Dials; got <= st.Dials {
		t.Errorf("recovery did not dial fresh: dials %d → %d", st.Dials, got)
	}
}

// TestPoolIdleReap: a connection with no traffic is reaped by the janitor.
func TestPoolIdleReap(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2,
		IdleTimeout: 50 * time.Millisecond})
	defer stop()

	if _, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := pt.Stats()
		if st.IdleClose >= 1 && st.Open == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("idle connection not reaped: %+v", pt.Stats())
}

// TestTCPPooledExchangeAndQuery runs the full P-Grid protocol — meetings,
// splits, recursion, then routing — over the pooled multiplexed binary
// transport, proving the fast wire carries the actual algorithm and not
// just echo RPCs.
func TestTCPPooledExchangeAndQuery(t *testing.T) {
	nodes, pt, stop := startPooledCluster(t, 8, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	rng := rand.New(rand.NewSource(5))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes) - 1)
		if b >= a {
			b++
		}
		nodes[a].Exchange(addr.Addr(b))
		sum := 0
		for _, n := range nodes {
			sum += n.Path().Len()
		}
		if float64(sum)/float64(len(nodes)) >= 2 {
			break
		}
	}
	sum := 0
	for _, n := range nodes {
		sum += n.Path().Len()
	}
	if float64(sum)/float64(len(nodes)) < 2 {
		t.Fatalf("pooled cluster did not reach depth 2 (avg %.2f)", float64(sum)/8)
	}

	for i := 0; i < 50; i++ {
		key := bitpath.Random(rng, 4)
		start := nodes[rng.Intn(len(nodes))]
		res := start.Query(key)
		if !res.Found {
			continue
		}
		var resp *Node
		for _, n := range nodes {
			if n.Addr() == res.Peer {
				resp = n
			}
		}
		if !bitpath.Comparable(resp.Path(), key) {
			t.Fatalf("query %s over pooled wire ended at %q", key, resp.Path())
		}
	}
	if st := pt.Stats(); st.Reuses <= st.Dials {
		t.Errorf("pool barely reused: %+v", st)
	}
}

// flakySwitch injects Transient failures between the resilient layer and
// the pool without touching the pool's own connections — the breaker sees
// failures while the warm sockets stay open, which is exactly the state
// the eviction hook exists for.
type flakySwitch struct {
	inner Transport
	fail  atomic.Bool
}

func (f *flakySwitch) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("%w: injected failure for %v", ErrOffline, to)
	}
	return f.inner.Call(to, m)
}

// TestPoolBreakerEviction wires resilience onto the pool the way the
// binaries do — OnPeerState evicts on open — and pins the satellite
// contract: the breaker opening closes the peer's warm connections, and
// after recovery the half-open probe's single dial repopulates the pool
// so subsequent calls reuse it rather than re-dialing.
func TestPoolBreakerEviction(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	flaky := &flakySwitch{inner: pt}
	var evicted atomic.Int64
	rt := resilience.Wrap(flaky, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Breaker:  resilience.BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond},
		Classify: Classify,
		Seed:     1,
		Sleep:    func(time.Duration) {},
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			if to == resilience.StateOpen {
				evicted.Add(1)
				pt.Evict(peer)
			}
		},
	})

	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := rt.Call(0, info); err != nil {
		t.Fatal(err)
	}
	if st := pt.Stats(); st.Open != 1 || st.Dials != 1 {
		t.Fatalf("warmup stats = %+v", st)
	}

	// Trip the breaker: Threshold consecutive Transient failures.
	flaky.fail.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := rt.Call(0, info); err == nil {
			t.Fatal("injected failure succeeded")
		}
	}
	if evicted.Load() != 1 {
		t.Fatalf("breaker open fired OnPeerState %d times, want 1", evicted.Load())
	}
	st := pt.Stats()
	if st.Evictions != 1 || st.Open != 0 {
		t.Fatalf("open breaker left pool warm: %+v", st)
	}

	// While open, calls fast-fail locally: no dials reach the pool.
	if _, err := rt.Call(0, info); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open breaker let a call through: %v", err)
	}
	if got := pt.Stats().Dials; got != st.Dials {
		t.Errorf("fast-fail dialed: %d → %d", st.Dials, got)
	}

	// Recovery: after the cooldown the half-open probe dials exactly once,
	// and every later call reuses that connection.
	flaky.fail.Store(false)
	time.Sleep(150 * time.Millisecond)
	if _, err := rt.Call(0, info); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	probe := pt.Stats()
	if probe.Dials != st.Dials+1 {
		t.Fatalf("half-open probe dials = %d, want %d", probe.Dials, st.Dials+1)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Call(0, info); err != nil {
			t.Fatal(err)
		}
	}
	final := pt.Stats()
	if final.Dials != probe.Dials {
		t.Errorf("post-recovery calls re-dialed: %d → %d", probe.Dials, final.Dials)
	}
	if final.Reuses <= probe.Reuses {
		t.Errorf("post-recovery calls did not reuse the probe's connection: %+v", final)
	}
}

// TestPoolHalfOpenProbeReusesConnection covers the breaker tripping
// WITHOUT the eviction hook (failures above the pool, warm socket still
// healthy): the half-open probe must go out over the existing pooled
// connection, not a fresh dial.
func TestPoolHalfOpenProbeReusesConnection(t *testing.T) {
	_, pt, stop := startPooledCluster(t, 1, PoolConfig{
		DialTimeout: 2 * time.Second, IOTimeout: 2 * time.Second, Size: 2})
	defer stop()

	flaky := &flakySwitch{inner: pt}
	rt := resilience.Wrap(flaky, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Breaker:  resilience.BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Classify: Classify,
		Seed:     2,
		Sleep:    func(time.Duration) {},
	})

	info := &wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if _, err := rt.Call(0, info); err != nil {
		t.Fatal(err)
	}
	flaky.fail.Store(true)
	for i := 0; i < 3; i++ {
		rt.Call(0, info)
	}
	tripped := pt.Stats()
	if tripped.Open != 1 || tripped.Dials != 1 {
		t.Fatalf("injected failures touched the pool: %+v", tripped)
	}

	flaky.fail.Store(false)
	time.Sleep(80 * time.Millisecond)
	if _, err := rt.Call(0, info); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	st := pt.Stats()
	if st.Dials != tripped.Dials {
		t.Errorf("half-open probe re-dialed a healthy pooled connection: %d → %d dials", tripped.Dials, st.Dials)
	}
	if st.Reuses != tripped.Reuses+1 {
		t.Errorf("half-open probe reuses = %d, want %d", st.Reuses, tripped.Reuses+1)
	}
}
