package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Grid parameters: maxl 5 over 128 peers leaves about four replicas per
// leaf. The stack flags are pgridnode's defaults (see NOTES.md).
const (
	peers       = 128
	maxl        = 5
	catalogSize = 2 * peers // two files a peer, as examples/filesharing shares
	keyBits     = 16
	recBreadth  = 2 // Publish breadth, as in the paper's Sec. 5.2 runs
	repetition  = 1
	zipfS       = 1.2 // the exponent of the Skew experiment (internal/experiments)

	poolSize       = 2
	dialTimeout    = 3 * time.Second
	ioTimeout      = 3 * time.Second
	poolIdle       = 60 * time.Second
	retryAttempts  = 3
	retryBase      = 25 * time.Millisecond
	retryBudget    = 0.1
	breakerFails   = 5
	breakerCool    = 2 * time.Second
	traceBuf       = 256
	traceSample    = 0.01
	communitySeed  = 1 // the grid and catalog are fixed; --seed drives traffic
	maxSetupMeets  = 200 * peers
	convergeTarget = 0.99 * maxl
)

var gridConfig = core.Config{MaxL: maxl, RefMax: 5, RecMax: 2, RecFanout: 2}

// member is one peer: its node, server, and the transport stack under it.
type member struct {
	ln     *resetListener
	node   *node.Node
	tr     node.Transport // the node's outbound stack
	tel    *telemetry.Instruments
	pool   *node.PoolTransport
	cancel context.CancelFunc
	done   chan error
}

// community is the running 128-peer grid, the catalog published on it, and
// the application process the load generator drives it through. The
// application is a client with its own transport stack, as pgridctl is:
// riding each entry peer's own pool would open a socket for every
// (entry, replica) pair, which the one-process mesh cannot hold (NOTES.md).
type community struct {
	members   []*member
	endpoints []string
	catalog   []store.Entry
	coverage  float64 // mean share of its replicas a catalog item's Publish reached
	shims     *shims  // nil in timing runs

	app     node.Transport // the application's stack (shimmed when traced)
	appTel  *telemetry.Instruments
	appPool *node.PoolTransport
}

// newCommunity starts every peer on its own loopback listener, builds the
// grid by sequential seeded exchanges until the mean path length reaches
// 0.99·maxl and publishes the catalog. With traced set, the benchmark's
// shims sit at every layer boundary (disabled until shims.on is set).
func newCommunity(traced bool) (*community, error) {
	c := &community{}
	if traced {
		c.shims = newShims()
	}
	lns := make([]*resetListener, peers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = &resetListener{Listener: ln}
		c.endpoints = append(c.endpoints, ln.Addr().String())
	}
	for i, ln := range lns {
		c.members = append(c.members, c.startMember(i, ln))
	}
	c.appTel = telemetry.New(-1)
	var top node.Transport
	c.appPool, top = c.stack(c.appTel, communitySeed)
	c.app = c.shimmed(top, func(s *shims) *layerCounts { return &s.client })
	if err := converge(c.nodes()); err != nil {
		c.close()
		return nil, err
	}
	if err := c.publishCatalog(); err != nil {
		c.close()
		return nil, err
	}
	c.warm()
	return c, nil
}

// shimmed wraps t in a shim counting into the chosen layer, when traced.
func (c *community) shimmed(t node.Transport, layer func(*shims) *layerCounts) node.Transport {
	if c.shims == nil {
		return t
	}
	return &shim{inner: t, layer: layer(c.shims), sh: c.shims}
}

// stack assembles cmd/pgridnode's outbound transport with default flags:
// PoolTransport (binary codec, pool size 2) under resilience.Wrap under
// InstrumentTransportSlow.
func (c *community) stack(tel *telemetry.Instruments, seed int64) (*node.PoolTransport, node.Transport) {
	pool := node.NewPoolTransport(node.PoolConfig{
		DialTimeout: dialTimeout, IOTimeout: ioTimeout, Size: poolSize, IdleTimeout: poolIdle,
	})
	pool.SetTelemetry(tel)
	for j, ep := range c.endpoints {
		pool.SetEndpoint(addr.Addr(j), ep)
	}
	rt := resilience.Wrap(c.shimmed(pool, func(s *shims) *layerCounts { return &s.pool }), resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: retryAttempts, BaseDelay: retryBase},
		Budget:   resilience.NewBudget(retryBudget, 0),
		Breaker:  resilience.BreakerConfig{Threshold: breakerFails, Cooldown: breakerCool},
		Classify: node.Classify,
		Seed:     seed,
		Tel:      tel,
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			if to == resilience.StateOpen {
				pool.Evict(peer)
			}
		},
	})
	res := c.shimmed(rt, func(s *shims) *layerCounts { return &s.res })
	return pool, node.InstrumentTransportSlow(res, tel, 0, nil)
}

// startMember assembles peer i as cmd/pgridnode does and starts serving it.
func (c *community) startMember(i int, ln *resetListener) *member {
	seed := int64(communitySeed*1000 + i)
	m := &member{ln: ln, tel: telemetry.New(i), done: make(chan error, 1)}
	var top node.Transport
	m.pool, top = c.stack(m.tel, seed)
	m.tr = c.shimmed(top, func(s *shims) *layerCounts { return &s.node })
	n := node.New(addr.Addr(i), gridConfig, m.tr, seed)
	n.SetTelemetry(m.tel)
	n.EnableTracing(trace.NewRecorder(traceBuf), traceSample)
	n.EnableHealth()
	m.node = n
	srv := node.NewServer(n, ln)
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go func() {
		err := srv.Serve(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: peer %d stopped serving: %v\n", i, err)
		}
		m.done <- err
	}()
	return m
}

// resetListener records the connections a peer accepts, so that tearing
// the community down can reset them (SO_LINGER 0) instead of closing them
// gracefully. A graceful close leaves a TIME_WAIT socket per connection for
// 60 s; the ~5 000 that each set-up leaves, over a run's several set-ups,
// fill the host's ephemeral port range and slow the dials of every run
// that follows.
type resetListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*net.TCPConn
}

func (l *resetListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if tc, ok := conn.(*net.TCPConn); ok {
		l.mu.Lock()
		l.conns = append(l.conns, tc)
		l.mu.Unlock()
	}
	return conn, err
}

func (l *resetListener) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.SetLinger(0) // fails only on connections already closed
	}
}

// close stops every server and pool and waits for the servers to return.
func (c *community) close() {
	for _, m := range c.members {
		m.ln.reset()
		m.cancel()
	}
	for _, m := range c.members {
		<-m.done
		m.pool.Close()
	}
	if c.appPool != nil {
		c.appPool.Close()
	}
}

// converge runs the set-up meetings over nodes: seeded random pairs until
// the mean path length reaches 0.99·maxl.
func converge(nodes []*node.Node) error {
	grid := &node.Cluster{Nodes: nodes}
	rng := rand.New(rand.NewSource(communitySeed))
	for i := 0; i < maxSetupMeets; i++ {
		a, b := randomPair(rng, len(nodes))
		if err := nodes[a].Exchange(addr.Addr(b)); err != nil {
			return fmt.Errorf("set-up exchange %d→%d: %w", a, b, err)
		}
		if i%peers == peers-1 && grid.AvgPathLen() >= convergeTarget {
			return nil
		}
	}
	return fmt.Errorf("grid did not converge in %d meetings (mean path %.2f)", maxSetupMeets, grid.AvgPathLen())
}

func randomPair(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// publishCatalog publishes the fixed catalog through Client.Publish from
// seeded entry peers, records the share of replicas each publish reached,
// and then applies each entry directly to every replica still without it.
// A catalog entry whose publish reaches no replica fails set-up.
func (c *community) publishCatalog() error {
	rng := rand.New(rand.NewSource(communitySeed + 1))
	c.catalog = make([]store.Entry, catalogSize)
	for i := range c.catalog {
		c.catalog[i] = store.Entry{
			Key:     bitpath.Random(rng, keyBits),
			Name:    fmt.Sprintf("item-%03d", i),
			Holder:  addr.Addr(rng.Intn(peers)),
			Version: 1,
		}
	}
	cl := node.NewClient(c.app, communitySeed+2)
	var covered float64
	for i, e := range c.catalog {
		entry := c.members[rng.Intn(peers)].node.Addr()
		if reached, _ := cl.Publish([]addr.Addr{entry}, e, recBreadth, repetition); reached == 0 {
			return fmt.Errorf("catalog entry %d reached no replica", i)
		}
		replicas := c.replicas(e.Key)
		covered += float64(len(c.holders(e))) / float64(len(replicas))
		// Load the entry onto the replicas the publish missed: lookups of an
		// item held by one replica failed even when repeated from 16 entry
		// peers, so the workloads could not run without failures (NOTES.md).
		for _, a := range replicas {
			if _, ok := c.members[a].node.Store().Get(e.Key, e.Name); ok {
				continue
			}
			if _, err := c.app.Call(a, &wire.Message{Kind: wire.KindApply, From: addr.Nil,
				Apply: &wire.ApplyReq{Entry: e}}); err != nil {
				return fmt.Errorf("catalog entry %d onto replica %v: %w", i, a, err)
			}
		}
	}
	c.coverage = covered / catalogSize
	return nil
}

// warm opens the pooled connections steady traffic keeps open: every peer
// to each peer in its routing table, and the application to every peer.
func (c *community) warm() {
	info := func(tr node.Transport, from, to addr.Addr) {
		// A failed call only leaves that connection cold.
		_, _ = tr.Call(to, &wire.Message{Kind: wire.KindInfo, From: from})
	}
	for _, m := range c.members {
		p := m.node.Peer()
		for _, r := range routingTable(p).Sorted() {
			info(m.tr, p.Addr(), r)
		}
		info(c.app, addr.Nil, p.Addr())
	}
}

func (c *community) nodes() []*node.Node {
	out := make([]*node.Node, len(c.members))
	for i, m := range c.members {
		out[i] = m.node
	}
	return out
}

// online returns the peers currently online.
func (c *community) online() []addr.Addr {
	var out []addr.Addr
	for _, m := range c.members {
		if m.node.Online() {
			out = append(out, m.node.Addr())
		}
	}
	return out
}

// holders returns the online peers whose path covers key and whose store
// holds (key, name).
func (c *community) holders(e store.Entry) []addr.Addr {
	var out []addr.Addr
	for _, m := range c.members {
		if !m.node.Online() || !bitpath.Comparable(m.node.Path(), e.Key) {
			continue
		}
		if _, ok := m.node.Store().Get(e.Key, e.Name); ok {
			out = append(out, m.node.Addr())
		}
	}
	return out
}

// replicas returns every peer whose path covers key.
func (c *community) replicas(key bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for _, m := range c.members {
		if bitpath.Comparable(m.node.Path(), key) {
			out = append(out, m.node.Addr())
		}
	}
	return out
}

// snapshot sums every peer's telemetry into one cluster view.
func (c *community) snapshot() clusterSnap {
	s := clusterSnap{stats: map[string]int64{}, hists: map[string]telemetry.QHistSnapshot{}}
	tels := []*telemetry.Instruments{c.appTel}
	for _, m := range c.members {
		tels = append(tels, m.tel)
	}
	for _, tel := range tels {
		ms := tel.MetricsSnapshot()
		for _, st := range ms.Stats {
			s.stats[st.Name] += st.Value
		}
		for _, h := range ms.Hists {
			if prev, ok := s.hists[h.Name]; ok {
				if merged, err := telemetry.MergeQHist(prev, h); err == nil {
					s.hists[h.Name] = merged
				}
				continue
			}
			s.hists[h.Name] = h
		}
	}
	return s
}

// clusterSnap is the community-wide sum of telemetry at one instant.
type clusterSnap struct {
	stats map[string]int64
	hists map[string]telemetry.QHistSnapshot
}

func (s clusterSnap) delta(base clusterSnap, name string) int64 {
	return s.stats[name] - base.stats[name]
}

// histDelta returns the change of a merged histogram between two snapshots.
func (s clusterSnap) histDelta(base clusterSnap, name string) telemetry.QHistSnapshot {
	cur := s.hists[name]
	prev, ok := base.hists[name]
	if !ok {
		return cur
	}
	d, _, err := telemetry.SubtractQHist(cur, prev)
	if err != nil {
		return telemetry.QHistSnapshot{}
	}
	return d
}
