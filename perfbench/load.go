package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/node"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

type opKind int

const (
	opLookup opKind = iota
	opPublish
	opMajority
	opExchange
	opKinds
)

var opNames = [opKinds]string{"lookup", "publish", "majority", "exchange"}

// workload is one traffic mix, offered open-loop at a fixed Poisson rate.
type workload struct {
	rate    float64          // offered operations per second
	mix     [opKinds]float64 // share of each operation
	offline float64          // share of peers taken offline before the window
}

// Offered rates, as shares of what two closed-loop clients sustain on a
// 2-core host: about 25%, so that CPU the host steals does not turn into
// queueing; gossip-steady lower, for the reason NOTES.md gives.
var workloads = map[string]workload{
	"lookup-zipf":   {rate: 800, mix: [opKinds]float64{opLookup: 1}},
	"publish-mix":   {rate: 400, mix: [opKinds]float64{opPublish: 0.4, opLookup: 0.4, opMajority: 0.2}},
	"gossip-steady": {rate: 200, mix: [opKinds]float64{opExchange: 1}},
	"lookup-churn":  {rate: 100, mix: [opKinds]float64{opLookup: 1}, offline: 0.25},
}

const (
	inFlight       = 2 // nproc: the generator never has more requests outstanding
	majorityMargin = 2
	majorityBudget = 8
)

// op is one scheduled operation.
type op struct {
	kind    opKind
	due     time.Duration // offset from the window start
	item    int           // catalog index
	entry   addr.Addr     // entry (or initiating) peer
	pick    int64         // selects the exchange partner, or seeds retries' entry peers
	version uint64        // publish version
}

// schedule draws a window's operations from the seed: Poisson arrivals,
// Zipf-ranked catalog items, uniform online entry peers.
func schedule(w workload, rng *rand.Rand, window time.Duration, online []addr.Addr, versions []uint64) []op {
	zipf := rand.NewZipf(rng, zipfS, 1, catalogSize-1)
	var ops []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return ops
		}
		o := op{due: due, kind: drawKind(rng, w.mix), item: int(zipf.Uint64()),
			entry: online[rng.Intn(len(online))], pick: rng.Int63()}
		if o.kind == opPublish {
			versions[o.item]++
			o.version = versions[o.item]
		}
		ops = append(ops, o)
	}
}

func drawKind(rng *rand.Rand, mix [opKinds]float64) opKind {
	x := rng.Float64()
	for k, p := range mix {
		if x < p {
			return opKind(k)
		}
		x -= p
	}
	for k := opKinds - 1; k >= 0; k-- {
		if mix[k] > 0 {
			return k
		}
	}
	return opLookup
}

// outcome is what one window measured. An operation fails when every one
// of its attempts failed; missed counts those whose first attempt did.
type outcome struct {
	attempted, failed int
	missed, tries     int                      // first attempts that failed; attempts made
	lat               [opKinds][]time.Duration // from due to completion
	slices            int                      // see sliceCount
	cpu               []time.Duration          // process CPU time at slice boundaries
	done              []int64                  // operations completed by then
	svc               [opKinds]time.Duration   // Σ start→completion
	late              []time.Duration          // start − due
	coverage          []float64                // replicas reached / replicas, per publish
	errs              []string                 // correctness violations
	elapsed           time.Duration
}

func (o *outcome) service() time.Duration {
	var sum time.Duration
	for _, d := range o.svc {
		sum += d
	}
	return sum
}

// sliceCount gives a window of n operations up to maxSlices slices of at
// least minSliceOps each, so one stalled second moves one slice's figure,
// not the run's, while each slice still averages over many operations.
func sliceCount(n int) int { return min(max(n/minSliceOps, 1), maxSlices) }

const (
	maxSlices   = 10
	minSliceOps = 1000
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// steadyCPUPerOp is the median over slices of process CPU time per
// completed operation, in microseconds.
func (o *outcome) steadyCPUPerOp() float64 {
	var per []float64
	for k := 1; k < len(o.cpu); k++ {
		if n := o.done[k] - o.done[k-1]; n > 0 {
			per = append(per, us(o.cpu[k]-o.cpu[k-1])/float64(n))
		}
	}
	return median(per)
}

// runner executes operations against the community and checks results.
type runner struct {
	c        *community
	clients  [inFlight]*node.Client // one per worker, over the application stack
	issued   []atomic.Uint64        // highest version ever issued, per item
	replicas []int                  // peers whose path covers each item
	online   []addr.Addr            // entry points: the peers online
}

func newRunner(c *community, seed int64) *runner {
	r := &runner{c: c, issued: make([]atomic.Uint64, catalogSize), replicas: make([]int, catalogSize),
		online: c.online()}
	for w := range r.clients {
		tr := c.app
		if c.shims != nil {
			tr = &busy{inner: c.app, sh: c.shims}
		}
		r.clients[w] = node.NewClient(tr, seed*7919+int64(w))
	}
	for i, e := range c.catalog {
		r.issued[i].Store(e.Version)
		r.replicas[i] = len(c.replicas(e.Key))
	}
	return r
}

// versions returns the highest version issued so far, per item.
func (r *runner) versions() []uint64 {
	v := make([]uint64, catalogSize)
	for i := range v {
		v[i] = r.issued[i].Load()
	}
	return v
}

// window runs ops open-loop with at most inFlight outstanding: each
// worker takes the next operation, waits until it is due, and runs it.
//
// With span > 0 a sampler reads the process CPU time at each slice boundary
// of [0, span), so CPU per operation can be taken per slice too.
func (r *runner) window(ops []op, span time.Duration) *outcome {
	out := &outcome{slices: sliceCount(len(ops))}
	var (
		next atomic.Int64
		done atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if span <= 0 {
			return
		}
		sample := func() {
			out.cpu = append(out.cpu, cpuTime())
			out.done = append(out.done, done.Load())
		}
		sample()
		for k := 1; k <= out.slices; k++ {
			select {
			case <-stop: // the last operation finished early: close the slice
				sample()
				return
			case <-time.After(time.Duration(k)*span/time.Duration(out.slices) - time.Since(start)):
				sample()
			}
		}
	}()
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				if d := o.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				began := time.Since(start)
				tries, cov, bad := r.run(w, o)
				end := time.Since(start)
				done.Add(1)
				mu.Lock()
				out.attempted++
				out.tries += max(tries, 1)
				if tries != 1 {
					out.missed++
				}
				if tries == 0 {
					out.failed++
				}
				out.lat[o.kind] = append(out.lat[o.kind], end-o.due)
				out.svc[o.kind] += end - began
				out.late = append(out.late, began-o.due)
				if o.kind == opPublish {
					out.coverage = append(out.coverage, cov)
				}
				if bad != "" {
					out.errs = append(out.errs, bad)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	close(stop)
	<-sampled
	return out
}

// maxTries bounds how often the application repeats a read that missed or
// a publish that reached no replica before the operation counts as failed.
const maxTries = 16

// run runs one operation as the application does: an attempt that fails
// (error, miss, publish reaching no replica) is repeated from another
// online entry peer, drawn from the operation's own seed, up to maxTries
// attempts; a meeting is not repeated. tries is the attempt that
// succeeded, 0 if none did; bad describes the first correctness violation.
func (r *runner) run(w int, o op) (tries int, coverage float64, bad string) {
	var rng *rand.Rand // made on the first failure: most operations never need it
	for t := 1; t <= maxTries; t++ {
		ok, cov, v := r.do(w, o)
		if bad == "" {
			bad = v
		}
		if ok {
			return t, cov, bad
		}
		if o.kind == opExchange {
			break
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(o.pick))
		}
		o.entry = r.online[rng.Intn(len(r.online))]
	}
	return 0, 0, bad
}

// do makes one attempt at an operation. ok is false for a failure (error,
// miss, publish reaching no replica); bad describes a correctness violation.
func (r *runner) do(w int, o op) (ok bool, coverage float64, bad string) {
	want := r.c.catalog[o.item]
	cl := r.clients[w]
	switch o.kind {
	case opLookup:
		res := cl.Lookup(o.entry, want.Key, want.Name)
		return res.Found, 0, r.check("lookup", o.item, res)
	case opMajority:
		res := cl.MajorityRead(r.online, want.Key, want.Name, majorityMargin, majorityBudget)
		return res.Found, 0, r.check("majority read", o.item, res)
	case opPublish:
		e := want
		e.Version = o.version
		for {
			cur := r.issued[o.item].Load()
			if cur >= o.version || r.issued[o.item].CompareAndSwap(cur, o.version) {
				break
			}
		}
		reached, _ := cl.Publish([]addr.Addr{o.entry}, e, recBreadth, repetition)
		return reached > 0, float64(reached) / float64(max(r.replicas[o.item], 1)), ""
	case opExchange:
		n := r.c.members[o.entry].node
		return n.Exchange(partner(n.Peer(), uint32(o.pick))) == nil, 0, ""
	}
	return false, 0, fmt.Sprintf("unknown operation %d", o.kind)
}

// check reports a read that returned another entry than the one published
// or a version never written.
func (r *runner) check(what string, item int, res node.ReadResult) string {
	if !res.Found {
		return ""
	}
	want := r.c.catalog[item]
	got := res.Entry
	if got.Key != want.Key || got.Name != want.Name || got.Holder != want.Holder {
		return fmt.Sprintf("%s of item %d returned %v, published %v", what, item, got, want)
	}
	if got.Version < 1 || got.Version > r.issued[item].Load() {
		return fmt.Sprintf("%s of item %d returned version %d, never written", what, item, got.Version)
	}
	return ""
}

// checkHolders reports catalog items that no online peer covering their
// key still holds.
func (r *runner) checkHolders() []string {
	var errs []string
	for i, e := range r.c.catalog {
		if len(r.c.holders(e)) == 0 {
			errs = append(errs, fmt.Sprintf("item %d (%v) has no online holder", i, e.Key))
		}
	}
	return errs
}

// takeOffline takes a seeded share of peers offline, skipping any peer
// whose departure would leave a catalog item with no online holder (an
// item nobody online holds is lost by construction, not by the program).
func (c *community) takeOffline(rng *rand.Rand, share float64) int {
	want := int(math.Round(share * peers))
	down := 0
	for _, i := range rng.Perm(peers) {
		if down == want {
			break
		}
		m := c.members[i]
		m.node.SetOnline(false)
		if c.orphansAny(m.node.Store().Entries()) {
			m.node.SetOnline(true)
			continue
		}
		down++
	}
	return down
}

// settle lets the online peers notice the departures, as a community that
// has run a while since them would have: every online peer calls each
// departed peer of its routing table until its breaker for that peer has
// seen breakerFails failures. Up to settleWorkers pairs run at once, so the
// backoff sleeps overlap.
func (c *community) settle() {
	type pair struct {
		m *member
		r addr.Addr
	}
	var pairs []pair
	for _, m := range c.members {
		if !m.node.Online() {
			continue
		}
		for _, r := range routingTable(m.node.Peer()).Sorted() {
			if !c.members[r].node.Online() {
				pairs = append(pairs, pair{m, r})
			}
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, settleWorkers)
	for _, p := range pairs {
		wg.Add(1)
		sem <- struct{}{}
		go func(p pair) {
			defer func() { <-sem; wg.Done() }()
			for i := 0; i < breakerFails; i++ {
				// These calls exist to fail: the breaker counts them.
				_, _ = p.m.tr.Call(p.r, &wire.Message{Kind: wire.KindInfo, From: p.m.node.Addr()})
			}
		}(p)
	}
	wg.Wait()
}

const settleWorkers = 256

func (c *community) orphansAny(entries []store.Entry) bool {
	for _, e := range entries {
		if len(c.holders(e)) == 0 {
			return true
		}
	}
	return false
}

func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(idx, 0)]) / float64(time.Millisecond)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
