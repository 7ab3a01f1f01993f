package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/wire"
)

// tracedRun measures the per-layer metrics. One community with the shims
// in place runs the window in three parts on fresh schedules: a quarter
// with the shims off, a half with them on, and another quarter off, so
// drift over the window (pools warming, breakers cycling) falls alike on
// the untraced and traced figures. Where operations make one call at a
// time the per-layer self times telescope: their sum per operation is the
// traced mean service time by construction. What the shims cost shows as
// the traced mean's distance from the untraced one, the tracing overhead.
func tracedRun(w workload, seed int64, window time.Duration) (*result, error) {
	began := time.Now()
	c, err := newCommunity(true)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(began).Seconds()
	defer c.close()
	r := prepare(c, w, seed)
	rng := rand.New(rand.NewSource(seed))
	part := func(d time.Duration) *outcome {
		runtime.GC()
		return r.window(schedule(w, rng, d, r.online, r.versions()), 0)
	}

	first := part(window / 4)
	sh := c.shims
	sh.reset()
	before := c.snapshot()
	rt0 := readRuntime()
	sh.on.Store(true)
	traced := part(window / 2)
	sh.on.Store(false)
	rt1 := readRuntime()
	after := c.snapshot()
	plain := merge(first, part(window/4))

	if plain.attempted == 0 || traced.attempted == 0 {
		return nil, fmt.Errorf("no operation fell in a part of the %v window", window)
	}
	res := r.verdict(merge(plain, traced))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	ops := float64(traced.attempted)
	var clientOps, exchanges float64
	var clientSvc, nodeSvc time.Duration
	for k := opKind(0); k < opKinds; k++ {
		n := float64(len(traced.lat[k]))
		if k == opExchange {
			exchanges = n
			nodeSvc = traced.svc[k]
		} else {
			clientOps += n
			clientSvc += traced.svc[k]
		}
	}

	// Generator validity and the user-facing figures of the untraced parts.
	put("bench.setup_wall_s", setupWall, "s")
	put("bench.late_p99_ms", quantile(plain.late, 0.99), "ms")
	put("bench.completed_per_s", float64(plain.attempted)/plain.elapsed.Seconds(), "1/s")
	put("bench.first_try_fail_ratio", float64(plain.missed)/float64(plain.attempted), "ratio")
	put("bench.tries_per_op", float64(plain.tries)/float64(plain.attempted), "count")
	var all []time.Duration
	for _, l := range plain.lat {
		all = append(all, l...)
	}
	put("bench.p50_ms", quantile(all, 0.50), "ms")
	put("bench.p90_ms", quantile(all, 0.90), "ms")
	put("bench.eq3_fail_ratio", 1-analysis.SuccessProbability(1-w.offline, gridConfig.RefMax, maxl), "ratio")
	plainMean := us(plain.service()) / float64(plain.attempted)
	tracedMean := us(traced.service()) / ops
	put("bench.service_us_untraced", plainMean, "us")
	put("bench.service_us_traced", tracedMean, "us")
	put("bench.trace_overhead_pct", 100*(tracedMean-plainMean)/plainMean, "%")
	for k := opKind(0); k < opKinds; k++ {
		put("op."+opNames[k]+"_p50_ms", quantile(plain.lat[k], 0.50), "ms")
		put("op."+opNames[k]+"_p99_ms", quantile(plain.lat[k], 0.99), "ms")
	}
	put("op.replica_coverage", mean(plain.coverage), "ratio")

	// Layer self times from the shim sums and the peers' served time.
	_, cNS := sh.client.totals()
	iCalls, iNS := sh.node.totals()
	cCalls, _ := sh.client.totals()
	rCalls, rNS := sh.res.totals()
	pCalls, pNS := sh.pool.totals()
	served := servedByKind(before, after)
	var hNS int64
	for _, h := range served {
		hNS += h.ns
	}
	// The client's self time is the operations' time outside any call in
	// wall-clock terms (busy), so Publish's overlapped applies are not
	// charged twice; the layers below sum the calls, overlapped or not.
	clientSelf := us(clientSvc) - float64(sh.clientBusy.Load())/1e3
	nodeSelf := us(nodeSvc) + float64(hNS-iNS)/1e3
	telSelf := float64(cNS+iNS-rNS) / 1e3
	resSelf := float64(rNS-pNS) / 1e3
	wireSelf := float64(pNS-hNS) / 1e3
	put("node.client.self_us_per_op", clientSelf/ops, "us")
	put("node.self_us_per_op", nodeSelf/ops, "us")
	put("telemetry.self_us_per_op", telSelf/ops, "us")
	put("telemetry.self_ns_per_call", 1e3*telSelf/float64(max(cCalls+iCalls, 1)), "ns")
	put("resilience.self_us_per_op", resSelf/ops, "us")
	put("resilience.self_us_per_call", resSelf/float64(max(rCalls, 1)), "us")
	put("pool.wire_us_per_op", wireSelf/ops, "us")
	put("pool.wire_us_per_call", wireSelf/float64(max(pCalls, 1)), "us")

	for _, k := range []wire.Kind{wire.KindQuery, wire.KindGet, wire.KindInfo, wire.KindApply} {
		put("node.client.calls_per_op."+k.String(), float64(sh.client.calls[k].Load())/max(clientOps, 1), "count")
	}
	for _, k := range []wire.Kind{wire.KindQuery, wire.KindGet, wire.KindInfo, wire.KindApply, wire.KindExchange, wire.KindBatch} {
		put("node.handle."+k.String()+".count_per_op", float64(served[k.String()].count)/ops, "count")
	}
	for _, k := range []wire.Kind{wire.KindQuery, wire.KindInfo, wire.KindExchange} {
		put("node.handle."+k.String()+".served_us", served[k.String()].mean(), "us")
	}
	q := served[wire.KindQuery.String()]
	put("node.handle.query.self_us", float64(q.ns-sh.node.ns[wire.KindQuery].Load())/1e3/float64(max(q.count, 1)), "us")
	routed := float64(max(sh.client.calls[wire.KindQuery].Load(), 1))
	put("node.query.hops_per_lookup", float64(q.count)/routed, "count")
	put("node.query.backtracks_per_lookup", float64(sh.queryMisses.Load())/routed, "count")
	perMeeting := 0.0
	if exchanges > 0 {
		perMeeting = float64(iCalls) / exchanges
	}
	put("node.exchange.rpcs_per_meeting", perMeeting, "count")
	put("node.invariant_violations", float64((&node.Cluster{Nodes: c.nodes()}).CountInvariantViolations()), "count")

	put("resilience.retries_per_op", float64(after.delta(before, "pgrid_resilience_retries_total"))/ops, "count")
	put("resilience.fastfail_per_op", float64(after.delta(before, "pgrid_resilience_breaker_fastfail_total"))/ops, "count")
	put("resilience.budget_refused", float64(after.delta(before, "pgrid_resilience_retry_budget_exhausted_total")), "count")

	dials := after.delta(before, "pgrid_pool_dials_total")
	reuses := after.delta(before, "pgrid_pool_reuses_total")
	put("pool.acquire_wait_us_p99", float64(after.histDelta(before, "pgrid_pool_acquire_wait_ns").Quantile(0.99))/1e3, "us")
	put("pool.dials", float64(dials), "count")
	put("pool.reuse_ratio", float64(reuses)/float64(max(reuses+dials, 1)), "ratio")
	put("pool.conns_open", float64(after.stats["pgrid_pool_conns_open"]), "count")

	put("store.apply_changed_ratio", float64(sh.appliesUseful.Load())/float64(max(sh.applies.Load(), 1)), "ratio")
	entries := 0
	for _, mb := range c.members {
		entries += mb.node.Store().Len()
	}
	put("store.entries_per_peer", float64(entries)/peers, "count")

	put("go.allocs_per_op", float64(rt1.mallocs-rt0.mallocs)/ops, "count")
	put("go.bytes_per_op", float64(rt1.bytes-rt0.bytes)/ops, "B")
	put("go.gc_cpu_fraction", (rt1.gcCPU-rt0.gcCPU)/max(rt1.totalCPU-rt0.totalCPU, 1e-9), "ratio")
	put("go.goroutines", float64(runtime.NumGoroutine()), "count")

	for name, v := range codecReplay(sh) {
		m[name] = v
	}
	rungs, err := ladder(c, seed)
	if err != nil {
		return nil, err
	}
	for name, v := range rungs {
		m[name] = v
	}
	res.Metrics = m
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// merge pools two windows' outcomes.
func merge(a, b *outcome) *outcome {
	m := &outcome{
		attempted: a.attempted + b.attempted,
		failed:    a.failed + b.failed,
		missed:    a.missed + b.missed,
		tries:     a.tries + b.tries,
		late:      append(append([]time.Duration(nil), a.late...), b.late...),
		coverage:  append(append([]float64(nil), a.coverage...), b.coverage...),
		errs:      append(append([]string(nil), a.errs...), b.errs...),
		elapsed:   a.elapsed + b.elapsed,
	}
	for k := range m.lat {
		m.lat[k] = append(append([]time.Duration(nil), a.lat[k]...), b.lat[k]...)
		m.svc[k] = a.svc[k] + b.svc[k]
	}
	return m
}

// served is the handling time peers spent on one request kind.
type served struct {
	count int64
	ns    int64
}

func (s served) mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.count) / 1e3
}

// servedByKind reads the peers' pgrid_rpc_served_latency_ns histograms
// between two snapshots, by kind.
func servedByKind(before, after clusterSnap) map[string]served {
	const prefix = "pgrid_rpc_served_latency_ns"
	out := map[string]served{}
	for name := range after.hists {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		d := after.histDelta(before, name)
		kind := name[strings.Index(name, `"`)+1 : strings.LastIndex(name, `"`)]
		out[kind] = served{count: d.Count, ns: d.Sum}
	}
	return out
}

type runtimeSample struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeSample{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
	}
}
