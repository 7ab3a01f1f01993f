package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/peer"
	"pgrid/internal/sim"
	"pgrid/internal/wire"
)

// replayKinds are the frames the codec replay times.
var replayKinds = []wire.Kind{wire.KindQuery, wire.KindQueryResp, wire.KindGetResp,
	wire.KindInfoResp, wire.KindExchange, wire.KindExchangeResp, wire.KindApply}

const replayReps = 40 // passes over each kind's sampled frames

// codecReplay times the binary codec on the frames sampled at the pool
// boundary: bytes, encode and decode ns and allocations per frame, by kind.
// A kind the workload never sent reports zeros.
func codecReplay(sh *shims) map[string]metric {
	out := map[string]metric{}
	for _, k := range replayKinds {
		sh.mu.Lock()
		frames := sh.frames[k]
		sh.mu.Unlock()
		name := "wire." + strings.ReplaceAll(k.String(), "-", "_")
		var size, encNS, decNS, allocs float64
		if len(frames) > 0 {
			encoded := make([][]byte, len(frames))
			for i, f := range frames {
				encoded[i], _ = wire.AppendFrame(nil, 1, 0, f)
				size += float64(len(encoded[i]))
			}
			n := float64(len(frames) * replayReps)
			size /= float64(len(frames))
			var buf []byte
			enc := measure(func() {
				for r := 0; r < replayReps; r++ {
					for _, f := range frames {
						buf, _ = wire.AppendFrame(buf[:0], 1, 0, f)
					}
				}
			})
			dec := measure(func() {
				for r := 0; r < replayReps; r++ {
					for _, b := range encoded {
						wire.ReadFrame(bytes.NewReader(b))
					}
				}
			})
			encNS, decNS = float64(enc.d)/n, float64(dec.d)/n
			allocs = float64(enc.mallocs+dec.mallocs) / n
		}
		out[name+".bytes"] = metric{size, "B"}
		out[name+".encode_ns"] = metric{encNS, "ns"}
		out[name+".decode_ns"] = metric{decNS, "ns"}
		out[name+".allocs"] = metric{allocs, "count"}
	}
	return out
}

type measured struct {
	d       time.Duration
	mallocs uint64
}

func measure(f func()) measured {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	return measured{d: d, mallocs: b.Mallocs - a.Mallocs}
}

const (
	ladderLookups   = 2000
	ladderExchanges = 300
)

// ladder replays one seeded key stream (Zipf catalog keys from uniform
// entry peers, as lookup-zipf draws them) and one pair stream (gossip
// partners from the initiator's routing table, as gossip-steady picks
// them) through stacks built with the same configuration and seed: the
// shared-memory core over a sim-built grid, node.Cluster over
// LocalTransport, and the full TCP community.
func ladder(c *community, seed int64) (map[string]metric, error) {
	rng := rand.New(rand.NewSource(seed + 17))
	zipf := rand.NewZipf(rng, zipfS, 1, catalogSize-1)
	type lk struct {
		key   bitpath.Path
		entry addr.Addr
	}
	keys := make([]lk, ladderLookups)
	for i := range keys {
		keys[i] = lk{c.catalog[zipf.Uint64()].Key, addr.Addr(rng.Intn(peers))}
	}
	pairs := make([]struct {
		a    addr.Addr
		pick uint32
	}, ladderExchanges)
	for i := range pairs {
		pairs[i].a, pairs[i].pick = addr.Addr(rng.Intn(peers)), rng.Uint32()
	}

	out := map[string]metric{}
	rung := func(name string, lookup func(bitpath.Path, addr.Addr), exchange func(addr.Addr, uint32)) {
		start := time.Now()
		for _, k := range keys {
			lookup(k.key, k.entry)
		}
		out[name+".lookup_us"] = metric{us(time.Since(start)) / ladderLookups, "us"}
		start = time.Now()
		for _, p := range pairs {
			exchange(p.a, p.pick)
		}
		out[name+".exchange_us"] = metric{us(time.Since(start)) / ladderExchanges, "us"}
	}

	built, err := sim.Build(sim.Options{N: peers, Config: gridConfig, Seed: communitySeed})
	if err != nil {
		return nil, fmt.Errorf("reference grid: %w", err)
	}
	d := built.Dir
	var cm core.Metrics
	crng := rand.New(rand.NewSource(seed))
	rung("core",
		func(key bitpath.Path, a addr.Addr) { core.Query(d, d.Peer(a), key, crng) },
		func(a addr.Addr, pick uint32) {
			p := d.Peer(a)
			core.Exchange(d, gridConfig, &cm, p, d.Peer(partner(p, pick)), crng)
		})

	nodes, err := localGrid()
	if err != nil {
		return nil, fmt.Errorf("reference grid: %w", err)
	}
	rung("node.local",
		func(key bitpath.Path, a addr.Addr) { nodes[a].Query(key) },
		func(a addr.Addr, pick uint32) { nodes[a].Exchange(partner(nodes[a].Peer(), pick)) })

	rung("full",
		func(key bitpath.Path, a addr.Addr) { c.members[a].node.Query(key) },
		func(a addr.Addr, pick uint32) {
			n := c.members[a].node
			n.Exchange(partner(n.Peer(), pick))
		})
	return out, nil
}

// partner picks an exchange partner from p's routing table (references at
// every level and buddies), falling back to any other peer when p knows
// nobody yet.
func partner(p *peer.Peer, pick uint32) addr.Addr {
	known := routingTable(p)
	if known.Len() == 0 {
		return addr.Addr((int(p.Addr()) + 1 + int(pick)%(peers-1)) % peers)
	}
	s := known.Sorted()
	return s[int(pick)%len(s)]
}

// routingTable returns the peers p knows: its references and buddies.
func routingTable(p *peer.Peer) addr.Set {
	known := p.Buddies()
	for l := 1; l <= p.PathLen(); l++ {
		known = addr.Union(known, p.RefsAt(l))
	}
	return known
}

// localGrid builds the community's grid in shared memory over
// node.Cluster's LocalTransport. The meetings are the TCP community's
// set-up sequence.
func localGrid() ([]*node.Node, error) {
	lt := node.NewLocalTransport()
	nodes := make([]*node.Node, peers)
	for i := range nodes {
		nodes[i] = node.New(addr.Addr(i), gridConfig, lt, int64(communitySeed*1000+i))
		lt.Register(nodes[i])
	}
	return nodes, converge(nodes)
}
