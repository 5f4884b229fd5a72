package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spacx/internal/serve"
)

// serveSpec fixes a serve workload's open-loop schedule and latency limit.
// The offered rates are a quarter to a third of what the closed loop
// completes at the seed commit on a 2-vCPU host, and the hit rate a
// twentieth: each was the steadier of two rates run alternately on that
// shared host, where a higher hit rate tipped the open loop into queueing
// whenever the host slowed down. The limits are a few times the tail
// latency at that rate in the host's slow spells, when it ran up to three
// times slower than at its best, so a request misses one only when the
// path itself gets markedly slower.
type serveSpec struct {
	path  string
	ops   int           // ops per request
	rate  float64       // open-loop requests per second
	limit time.Duration // latency limit per request
}

var serveSpecs = map[string]serveSpec{
	"serve-hit":   {path: "/v1/simulate", ops: 1, rate: 500, limit: 50 * time.Millisecond},
	"serve-miss":  {path: "/v1/simulate", ops: 1, rate: 300, limit: 100 * time.Millisecond},
	"serve-sweep": {path: "/v1/sweep", ops: gridPoints, rate: 12, limit: time.Second},
}

const (
	// hotKeys is the serve-hit working set, well under the server's
	// 512-entry response cache.
	hotKeys = 32
	// setupsPerRound is how many more servers a run launches, and stops,
	// before each round to time its set-up; setup_s is the median over
	// these and the measured server's launch. Spreading the launches over
	// the run keeps a momentary stall of the host, which moved all of a
	// run's launches when they ran back to back, to a few of them.
	setupsPerRound = 2
	// warmup is the untimed closed-loop load before the timed phases.
	warmup = 500 * time.Millisecond
	// replayQueries bounds the traced run's in-process replay.
	replayQueries = 128
)

// serveLoad is a serve workload's request stream and answer checker.
type serveLoad struct {
	spec   serveSpec
	body   func(seq int) []byte
	keysAt func(seq int) []key // the keys a request asks for, in answer order
	hot    [][]byte            // serve-hit: the warm-up body of each hot key
	hotAt  func(seq int) int
}

// openBase is where the open loop's request sequence numbers start; below
// it they index the closed loop's sequence.
const openBase = 1 << 30

// pick returns request seq of a workload's closed or open sequence. The
// open sequence holds exactly the requests a run's open phases send, so no
// open-loop key repeats; indexing past it is a bug and panics. A fast
// closed loop that uses its sequence up wraps around, to keys asked
// thousands of requests earlier and long evicted from the server's caches.
func pick[T any](closed, open []T, seq int) T {
	if seq >= openBase {
		return open[seq-openBase]
	}
	return closed[seq%len(closed)]
}

// newServeLoad builds a workload's request stream for a run whose open
// phases send openOps requests.
func newServeLoad(workload string, seed int64, openOps int) (*serveLoad, error) {
	l := &serveLoad{spec: serveSpecs[workload]}
	switch workload {
	case "serve-hit":
		hot := permutation(seed)[:hotKeys]
		l.hotAt = func(seq int) int { return int(mix(uint64(seed), uint64(seq)) % hotKeys) }
		l.keysAt = func(seq int) []key { return []key{hot[l.hotAt(seq)]} }
	case "serve-miss":
		closed, open, err := missSequences(seed, openOps)
		if err != nil {
			return nil, err
		}
		l.keysAt = func(seq int) []key { return []key{pick(closed, open, seq)} }
	case "serve-sweep":
		closed, open, err := sweepSequences(seed, openOps)
		if err != nil {
			return nil, err
		}
		l.keysAt = func(seq int) []key { return pick(closed, open, seq).keys() }
		l.body = func(seq int) []byte { return pick(closed, open, seq).body() }
	}
	if l.body == nil {
		l.body = func(seq int) []byte { return l.keysAt(seq)[0].body() }
	}
	return l, nil
}

// mix is splitmix64 of seed and i: serve-hit's seeded choice of hot key.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// outcome is one checked shot: its ops and how many of them failed.
type outcome struct {
	ops, failed int
}

// check classifies one shot and verifies every answer in it, reporting
// mismatches through bad. Failed ops (transport errors, non-2xx answers,
// sweep points with an error) are not mismatches; wrong answers are.
func (l *serveLoad) check(s shot, bad func(string)) outcome {
	o := outcome{ops: l.spec.ops}
	if s.err != nil || s.status < 200 || s.status > 299 {
		o.failed = o.ops
		return o
	}
	keys := l.keysAt(s.seq)
	if l.hot != nil {
		if want := l.hot[l.hotAt(s.seq)]; !bytes.Equal(s.body, want) {
			bad(fmt.Sprintf("%s: hit body differs from its warm-up body", keys[0]))
		}
		return o
	}
	if l.spec.path == "/v1/simulate" {
		if msg := checkSimulate(keys[0], s.body); msg != "" {
			bad(msg)
		}
		return o
	}
	var sr serve.SweepResponse
	if err := json.Unmarshal(s.body, &sr); err != nil || len(sr.Points) != len(keys) {
		bad(fmt.Sprintf("sweep %d: undecodable or %d points (err %v)", s.seq, len(sr.Points), err))
		o.failed = o.ops
		return o
	}
	for i, p := range sr.Points {
		if p.Error != "" {
			o.failed++
			continue
		}
		if msg := checkSimulate(keys[i], p.Result); msg != "" {
			bad(msg)
		}
	}
	return o
}

// checkAll checks shots on clients goroutines and returns each shot's
// outcome.
func (l *serveLoad) checkAll(shots []shot, r *run) []outcome {
	out := make([]outcome, len(shots))
	var mu sync.Mutex
	bad := func(msg string) {
		mu.Lock()
		r.mismatch("%s", msg)
		mu.Unlock()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(shots); i = int(next.Add(1) - 1) {
				out[i] = l.check(shots[i], bad)
			}
		}()
	}
	wg.Wait()
	return out
}

// runServe runs a serve workload against a fresh spacx-serve: set-up,
// warm-up, rounds of a closed-loop phase followed by an open-loop phase,
// then the answer checks.
func runServe(cfg config) (*run, error) {
	spec := serveSpecs[cfg.workload]
	sc := newSchedule(cfg.seconds, cfg.seed, spec.rate)
	l, err := newServeLoad(cfg.workload, cfg.seed, sc.openOps())
	if err != nil {
		return nil, err
	}
	r := &run{}

	srv, d, err := startServer(cfg.serve)
	if err != nil {
		return nil, err
	}
	setups := []float64{d.Seconds()}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	pid := srv.cmd.Process.Pid
	cs := conns(srv.addr)
	defer func() {
		for _, k := range cs {
			k.close()
		}
	}()
	tgt := &target{path: l.spec.path, body: l.body, trace: cfg.trace}
	var cursor atomic.Int64

	// Warm-up, untimed. serve-hit first asks each hot key once and keeps
	// the answers every later hit must repeat byte for byte.
	if cfg.workload == "serve-hit" {
		for _, k := range permutation(cfg.seed)[:hotKeys] {
			b := k.body()
			s := (&target{path: tgt.path, body: func(int) []byte { return b }}).do(cs[0], 0, time.Time{})
			if s.err != nil || s.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s: status %d, err %v", k, s.status, s.err)
			}
			if msg := checkSimulate(k, s.body); msg != "" {
				r.mismatch("%s", msg)
			}
			l.hot = append(l.hot, s.body)
		}
	}
	warm, _ := closedLoop(tgt, cs, &cursor, warmup)

	var tr *serveTrace
	if cfg.trace {
		var err error
		if tr, err = startServeTrace(srv, cfg.seconds); err != nil {
			return nil, err
		}
	}
	var closed, open []shot
	var closedWalls, openWalls []time.Duration
	var closedRounds [][]shot
	var calib []float64
	// cpu is the server's CPU time over the open phases, whose offered
	// load is fixed. In a closed loop the server's CPU per op depends on
	// its throughput: a request that finds it busy costs about half of one
	// that wakes it from idle, and the mix of the two moved with the
	// shared host's scheduling, by a third between runs on serve-hit.
	var cpu time.Duration
	// rss holds the server's peak resident set in each round. The high-water
	// mark is reset before every round, so the median over rounds does
	// not hang on one garbage-collection cycle that ran late.
	var rss []float64
	for i := 0; i < sc.rounds; i++ {
		for j := 0; j < setupsPerRound; j++ {
			s, d, err := startServer(cfg.serve)
			if err != nil {
				return nil, err
			}
			s.stop()
			setups = append(setups, d.Seconds())
		}
		calib = calibrateRound(calib)
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
		c, wall := closedLoop(tgt, cs, &cursor, sc.closedLen())
		if tr != nil {
			if err := tr.sample(srv, c, l.spec.ops, tracesSampled/sc.rounds); err != nil {
				return nil, err
			}
		}
		base := openBase + i*sc.nOpen
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		o, owall := sc.open(len(cs), func(w, k int) shot { return tgt.do(cs[w], base+k, time.Time{}) })
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		peak, err := peakRSS(pid)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		closed, open = append(closed, c...), append(open, o...)
		closedRounds = append(closedRounds, c)
		closedWalls, openWalls = append(closedWalls, wall), append(openWalls, owall)
	}
	if tr != nil {
		if err := tr.finish(srv); err != nil {
			return nil, err
		}
	}
	srv.stop()
	stopped = true

	// Answer checks, off the clock.
	l.checkAll(warm, r)
	openOut := l.checkAll(open, r)
	var rates []float64
	var closedOps, closedOK int
	for i, c := range closedRounds {
		ops, ok := 0, 0
		for _, o := range l.checkAll(c, r) {
			ops += o.ops
			ok += o.ops - o.failed
			r.attempted += int64(o.ops)
			r.failed += int64(o.failed)
		}
		if ops == 0 {
			return nil, fmt.Errorf("closed round %d completed no ops", i)
		}
		closedOps += ops
		closedOK += ok
		rates = append(rates, float64(ok)/closedWalls[i].Seconds())
	}
	var good int
	var openWall time.Duration
	for i, o := range openOut {
		r.attempted += int64(o.ops)
		r.failed += int64(o.failed)
		if open[i].end.Sub(open[i].from()) <= l.spec.limit {
			good += o.ops - o.failed
		}
	}
	for _, w := range openWalls {
		openWall += w
	}
	lat, lag := latencies(open)
	tailPct, tailMs := tail(lat)
	// A generator that is late as a rule did not offer the schedule; the
	// run is invalid. Its occasional late wake-up on a busy host is only
	// reported, as the lag p99.
	lagP99 := quantile(lag, 99)
	if lagP50 := quantile(lag, 50); lagP50 > ms(l.spec.limit)/10 {
		return nil, fmt.Errorf("invalid run: the generator's median lag %.3f ms exceeds a tenth of the %v latency limit", lagP50, l.spec.limit)
	}

	// Interference from a shared host only ever slows a round, so the
	// closed loop reports the upper quartile of its round rates: a figure a
	// slow spell leaves alone unless it covers most of the run, and that
	// still moves with every round when the program itself gets slower.
	opsPerS, p50 := upperQuartile(rates), quantile(lat, 50)
	openOps := len(open) * l.spec.ops
	rawCPU := ms(cpu) / float64(openOps)
	cpuMs := refCPU(rawCPU, calib)
	r.note("closed loop: %d clients, %d rounds of %v on average, %d ops (%d answered); per round ops/s %.4g",
		clients, sc.rounds, sc.closed, closedOps, closedOK, rates)
	r.note("open loop: %d rounds of %d requests at %.0f/s over %v; limit %v; tail is p%g of %d samples",
		sc.rounds, sc.nOpen, l.spec.rate, sc.phase, l.spec.limit, tailPct, len(lat))
	r.note("server cpu %.6g ms over %d open-loop ops: %.6g ms/op; calibration median %.6g ms (reference %g ms)",
		ms(cpu), openOps, rawCPU, median(calib), calibRefMs)
	r.note("ops_per_s %.6g; latency_p50_ms %.6g; latency_tail_ms %.6g (p%g of %d samples); cpu_ms_per_op %.6g",
		opsPerS, p50, tailMs, tailPct, len(lat), cpuMs)
	r.note("generator lag p99 %.3f ms; set-up launches %d", lagP99, len(setups))
	r.note("ops: attempted %d, failed %d; answer checks: %d mismatches", r.attempted, r.failed, len(r.mismatches))
	if !cfg.trace {
		r.set("setup_s", median(setups), "s")
		r.set("goodput_ops_per_s", float64(good)/openWall.Seconds(), "1/s")
		r.set("cpu_ms_per_op", cpuMs, "ms")
		r.set("peak_rss_mb", median(rss), "MiB")
		return r, nil
	}
	r.set("loadgen.lag_p99_ms", lagP99, "ms")
	r.set("loadgen.sent", float64(r.attempted), "count")
	r.set("loadgen.failed", float64(r.failed), "count")
	r.set("loadgen.latency_tail_ms", tailMs, "ms")
	r.set("loadgen.tail_pct", tailPct, "%")
	r.set("loadgen.tail_samples", float64(len(lat)), "count")
	r.set("traced.ops_per_s", opsPerS, "1/s")
	r.set("traced.latency_p50_ms", p50, "ms")
	r.set("traced.cpu_ms_per_op", cpuMs, "ms")
	tr.report(r)

	var queries []key
	for _, s := range closed {
		queries = append(queries, l.keysAt(s.seq)...)
	}
	if err := replay(r, queries, replayQueries); err != nil {
		return nil, err
	}
	for _, set := range []struct {
		phase string
		shots []shot
	}{{"closed", closed}, {"open", open}} {
		for _, s := range set.shots {
			sp := newSpan(s.trace, "client"+l.spec.path, "", s.start, s.end.Sub(s.start))
			sp.Phase = set.phase
			if !s.sched.IsZero() {
				sp.SchedNS = s.sched.UnixNano()
			}
			r.trace = append(r.trace, sp)
		}
	}
	r.trace = append(r.trace, tr.spans...)
	return r, writeSpans(cfg, r.trace)
}
