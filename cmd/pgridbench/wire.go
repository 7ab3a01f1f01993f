package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// wireReport is the machine-readable output of the wire benchmark
// (BENCH_wire.json at the repository root is regenerated with
// `go run ./cmd/pgridbench -run wire -wire-json BENCH_wire.json`).
type wireReport struct {
	Schema     string    `json:"schema"`
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	RPCsPerRow int       `json:"rpcs_per_row"`
	Rows       []wireRow `json:"rows"`
}

// wireRow is one cell of the codec × transport A/B matrix. AllocsPerOp
// and BytesPerOp are whole-process deltas (client and server run in the
// same process here, so the figure is end-to-end: encode, frame, serve,
// decode). SpeedupVsGobDial is RPCsPerSec over the gob/dial baseline —
// the transport the pooled binary wire replaced.
type wireRow struct {
	Codec            string  `json:"codec"`     // "gob" | "binary"
	Transport        string  `json:"transport"` // "dial" | "pooled"
	RPCs             int     `json:"rpcs"`
	Seconds          float64 `json:"seconds"`
	RPCsPerSec       float64 `json:"rpcs_per_sec"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	P50Micros        float64 `json:"p50_us"`
	P99Micros        float64 `json:"p99_us"`
	SpeedupVsGobDial float64 `json:"speedup_vs_gob_dial"`
}

const (
	wireTimeout = 5 * time.Second
	wireWorkers = 8
	wireWarmup  = 200
	wireRPCs    = 4000
)

// wireBench runs the single-node RPC A/B: the same KindGet workload
// against one node, as gob dial-per-call (the baseline), binary
// dial-per-call and binary pooled. The binary cells dial the production
// Server through PoolTransport; the gob cell keeps the pre-pool protocol —
// dial, one length-prefixed gob frame each way through node.Handle, close —
// against a gob listener of its own (serveGob, gobDialer).
func wireBench(out io.Writer, seed int64, jsonPath string) {
	cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
	n := node.New(0, cfg, node.NewLocalTransport(), seed)
	entry := store.Entry{Key: bitpath.MustParse("10110100"), Name: "bench-item", Holder: 3, Version: 7}
	if !n.Store().Apply(entry) {
		check(fmt.Errorf("wire bench: seeding the store failed"))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	srv := node.NewServer(n, ln)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)
	defer srv.Close()
	ep := ln.Addr().String()

	gobLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer gobLn.Close()
	go serveGob(gobLn, n)
	gobEP := gobLn.Addr().String()

	req := func() *wire.Message {
		return &wire.Message{Kind: wire.KindGet, From: addr.Nil,
			Get: &wire.GetReq{Key: entry.Key, Name: entry.Name}}
	}

	// measure drives rpcs calls over tr with wireWorkers goroutines and
	// returns wall-clock, whole-process alloc deltas, and the latency
	// distribution.
	measure := func(tr node.Transport, rpcs int) (seconds, allocsPerOp, bytesPerOp float64, p50, p99 time.Duration) {
		lat := make([]time.Duration, rpcs)
		var next atomic.Int64
		run := func() {
			var wg sync.WaitGroup
			for w := 0; w < wireWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(rpcs) {
							return
						}
						t0 := time.Now()
						resp, err := tr.Call(0, req())
						check(err)
						if resp.GetResp == nil || !resp.GetResp.Found {
							check(fmt.Errorf("wire bench: lost the entry: %+v", resp))
						}
						lat[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
		}

		// Warmup fills pools outside the window.
		next.Store(int64(rpcs - wireWarmup))
		run()
		next.Store(0)

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		run()
		seconds = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(rpcs)
		bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(rpcs)

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50 = lat[rpcs/2]
		p99 = lat[rpcs*99/100]
		return seconds, allocsPerOp, bytesPerOp, p50, p99
	}

	type cell struct {
		codec, transport string
		make             func() (node.Transport, func())
	}
	pooled := func(size int) func() (node.Transport, func()) {
		return func() (node.Transport, func()) {
			pt := node.NewPoolTransport(node.PoolConfig{DialTimeout: wireTimeout,
				IOTimeout: wireTimeout, Size: size})
			pt.SetEndpoint(0, ep)
			return pt, pt.Close
		}
	}
	cells := []cell{
		{"gob", "dial", func() (node.Transport, func()) {
			return gobDialer(gobEP), func() {}
		}},
		{"binary", "dial", pooled(0)},
		{"binary", "pooled", pooled(2)},
	}

	rows := make([]wireRow, 0, len(cells))
	var baseline float64
	for _, c := range cells {
		tr, closeTr := c.make()
		seconds, allocs, bytes, p50, p99 := measure(tr, wireRPCs)
		closeTr()
		r := wireRow{
			Codec: c.codec, Transport: c.transport, RPCs: wireRPCs,
			Seconds:     seconds,
			RPCsPerSec:  float64(wireRPCs) / seconds,
			AllocsPerOp: allocs, BytesPerOp: bytes,
			P50Micros: float64(p50) / 1e3, P99Micros: float64(p99) / 1e3,
		}
		if c.codec == "gob" && c.transport == "dial" {
			baseline = r.RPCsPerSec
		}
		r.SpeedupVsGobDial = r.RPCsPerSec / baseline
		rows = append(rows, r)
	}

	fmt.Fprintf(out, "Wire throughput — single-node KindGet over loopback TCP, %d workers, %d RPCs per cell\n",
		wireWorkers, wireRPCs)
	fmt.Fprintf(out, "%8s %8s %12s %12s %10s %10s %10s %9s\n",
		"codec", "conns", "rpcs/sec", "allocs/op", "bytes/op", "p50 µs", "p99 µs", "speedup")
	for _, r := range rows {
		fmt.Fprintf(out, "%8s %8s %12.0f %12.1f %10.0f %10.1f %10.1f %8.2fx\n",
			r.Codec, r.Transport, r.RPCsPerSec, r.AllocsPerOp, r.BytesPerOp, r.P50Micros, r.P99Micros, r.SpeedupVsGobDial)
	}
	fmt.Fprintln(out)

	if jsonPath != "" {
		rep := wireReport{
			Schema:     "pgridbench-wire/v1",
			GoVersion:  runtime.Version(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Workers:    wireWorkers,
			RPCsPerRow: wireRPCs,
			Rows:       rows,
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		buf = append(buf, '\n')
		check(os.WriteFile(jsonPath, buf, 0o644))
		fmt.Fprintf(out, "wrote %s (%d cells)\n", jsonPath, len(rows))
	}
}

// serveGob serves n over the pre-pool gob protocol until ln is closed: each
// connection carries length-prefixed gob frames, answered in order through
// node.Handle, until the client closes it.
func serveGob(ln net.Listener, n *node.Node) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				msg, err := wire.ReadMessage(br)
				if err != nil {
					return
				}
				if err := wire.WriteMessage(conn, n.Handle(msg)); err != nil {
					return
				}
			}
		}()
	}
}

// gobDialer is the dial-per-call gob client: every call dials ep, writes
// one gob frame, reads one back and closes, with the IO deadline started
// after the dial.
type gobDialer string

func (ep gobDialer) Call(_ addr.Addr, msg *wire.Message) (*wire.Message, error) {
	conn, err := net.DialTimeout("tcp", string(ep), wireTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(wireTimeout)); err != nil {
		return nil, err
	}
	if err := wire.WriteMessage(conn, msg); err != nil {
		return nil, err
	}
	resp, err := wire.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.KindError {
		return nil, errors.New(resp.Error)
	}
	return resp, nil
}
