// Command perfbench is the repository benchmark: a 128-peer P-Grid
// community on loopback TCP in one process, assembled exactly as
// cmd/pgridnode assembles a peer, driven by an open-loop generator with one
// of four traffic mixes. It prints one JSON object as its last line of
// output: the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). NOTES.md documents the workloads and metrics.
//
//	bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const setups = 5 // set-ups per timing run; setup_s is the median of their CPU times

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "lookup-zipf, publish-mix, gossip-steady or lookup-churn")
		seed    = flag.Int64("seed", 1, "traffic seed")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(w, *seed, window)
	} else {
		res, err = timingRun(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// prepare brings a set-up community to the state its window starts from:
// a closed-loop burst of the workload's own traffic, then the workload's
// churn. It is not part of setup_s: the burst is traffic, and settling the
// breakers is backoff sleeps, not building the grid.
func prepare(c *community, w workload, seed int64) *runner {
	r := newRunner(c, seed)
	warm := schedule(w, rand.New(rand.NewSource(seed^0x5eed)), time.Second, r.online, make([]uint64, catalogSize))
	for i := range warm {
		warm[i].due = 0
		if warm[i].kind == opPublish {
			warm[i].kind = opLookup // keep the catalog at version 1 until the window
		}
	}
	if len(warm) > warmOps {
		warm = warm[:warmOps]
	}
	r.window(warm, 0)
	if w.offline > 0 {
		// Which peers leave is part of the community, not of the traffic:
		// drawn per --seed, it spread msgs_per_op across seeds seven times
		// as wide as the traffic did.
		c.takeOffline(rand.New(rand.NewSource(communitySeed+3)), w.offline)
		c.settle()
		r.online = c.online()
	}
	return r
}

const warmOps = 400

// timingRun sets up several times, prepares the last community and
// measures one untraced window on it. setup_s is the median process CPU
// time of newCommunity, not its wall time: set-up is a chain of sequential
// round trips, whose wall time follows the host's wake-up latency (1.5 to
// 3.4 s for the same set-up on a 2-core VM whose host stole CPU) while the
// work it does, and so its CPU time, stays put.
func timingRun(w workload, seed int64, window time.Duration) (*result, error) {
	var (
		c               *community
		times, coverage []float64
	)
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			runtime.GC() // so peak RSS is one community's, not GC timing's
		}
		began := cpuTime()
		var err error
		if c, err = newCommunity(false); err != nil {
			return nil, err
		}
		times = append(times, (cpuTime() - began).Seconds())
		coverage = append(coverage, c.coverage)
	}
	defer c.close()
	sort.Float64s(times)
	r := prepare(c, w, seed)

	ops := schedule(w, rand.New(rand.NewSource(seed)), window, r.online, r.versions())
	before := c.snapshot()
	runtime.GC() // start every window on a fresh heap: a run's GC cycles then fall alike
	out := r.window(ops, window)
	after := c.snapshot()

	if out.attempted == 0 {
		return nil, fmt.Errorf("no operation fell in the %v window", window)
	}
	res := r.verdict(out)
	msgs := after.delta(before, "pgrid_rpc_client_total")
	res.Metrics = map[string]metric{
		"setup_s":          {times[len(times)/2], "s"},
		"mem_mb":           {peakRSSMB(), "MB"},
		"cpu_us_per_op":    {out.steadyCPUPerOp(), "us"},
		"msgs_per_op":      {float64(msgs) / float64(out.attempted), "count"},
		"replica_coverage": {median(coverage), "ratio"},
	}
	return res, nil
}

// verdict runs the end-of-window correctness checks.
func (r *runner) verdict(out *outcome) *result {
	errs := append(out.errs, r.checkHolders()...)
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more violations\n", len(errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", e)
	}
	return &result{Correct: len(errs) == 0, Attempted: out.attempted, Failed: out.failed}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
