package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/sim"
)

// reportLimit is report-cold's latency limit per pass: a few times the
// seed's tail pass time on a 2-vCPU host in its slow spells.
const reportLimit = 500 * time.Millisecond

// drivers are the twenty golden experiment drivers in report order, each
// checked against internal/exp/testdata/<name>.golden.json.
var drivers = []struct {
	name string
	run  func() (any, error)
}{
	{"table1", func() (any, error) { return exp.Table1() }},
	{"table2", func() (any, error) { return exp.Table2(), nil }},
	{"table34", func() (any, error) { return exp.Table3And4() }},
	{"fig13", func() (any, error) { return exp.Fig13And14() }},
	{"fig15", func() (any, error) { return exp.Fig15() }},
	{"fig16", func() (any, error) { return exp.Fig16(2000) }},
	{"fig17", func() (any, error) { return exp.Fig17() }},
	{"fig18", func() (any, error) { return exp.Fig18() }},
	{"fig19", func() (any, error) { return exp.Fig19() }},
	{"fig20", func() (any, error) { return exp.Fig20() }},
	{"fig21a", func() (any, error) { return exp.Fig21a() }},
	{"fig21b", func() (any, error) { return exp.Fig21bBreakdown() }},
	{"fig22", func() (any, error) { return exp.Fig22() }},
	{"ablation", func() (any, error) { return exp.AblationBroadcast() }},
	{"tradeoff", func() (any, error) { return exp.GranularityTradeoff() }},
	{"adaptive", func() (any, error) { return exp.AdaptiveGranularity() }},
	{"batch", func() (any, error) { return exp.BatchScaling() }},
	{"engines", func() (any, error) { return exp.EngineAgreement() }},
	{"area", func() (any, error) { return exp.Area() }},
	{"thermal", func() (any, error) { return exp.ThermalGolden() }},
}

// timedDrivers get their own exp.<name>_ms metric in the traced run; the
// other ten are summed into exp.rest_ms.
var timedDrivers = map[string]bool{
	"fig16": true, "adaptive": true, "fig21a": true, "fig17": true, "fig18": true,
	"fig15": true, "ablation": true, "batch": true, "engines": true, "thermal": true,
}

// pass is one cold pass over every driver.
type pass struct {
	start     time.Time
	wall, cpu time.Duration
	ok        bool               // every output equals its golden
	driverMs  map[string]float64 // traced run only
	outputs   [][]byte
}

// runPass resets the experiment caches and runs every driver, rendering
// each result the way the goldens are rendered.
func runPass(traced bool) (pass, error) {
	p := pass{outputs: make([][]byte, len(drivers))}
	if traced {
		p.driverMs = map[string]float64{}
	}
	cpu0 := cpuSelf()
	p.start = time.Now()
	exp.ResetCaches()
	for i, d := range drivers {
		t1 := time.Now()
		v, err := d.run()
		if err != nil {
			return p, fmt.Errorf("%s: %w", d.name, err)
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return p, fmt.Errorf("%s: %w", d.name, err)
		}
		p.outputs[i] = append(b, '\n')
		if traced {
			p.driverMs[d.name] = ms(time.Since(t1))
		}
	}
	p.wall = time.Since(p.start)
	p.cpu = cpuSelf() - cpu0
	return p, nil
}

// cpuSelf is this process's CPU time (user + system).
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeSetup starts this binary in probe mode and returns how long it took
// to reach main: the process start-up every report run pays before its
// first driver call.
func probeSetup() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-probe")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe: read %q: %v", line, rerr)
	}
	if werr != nil {
		return 0, fmt.Errorf("set-up probe: %w", werr)
	}
	return d, nil
}

// errGolden marks an open-loop pass whose outputs differ from the goldens.
var errGolden = errors.New("output differs from its golden")

// reportRate is report-cold's open-loop offered rate: passes due per
// second, about a third of what one process completes back to back at the
// seed commit on a 2-vCPU host.
const reportRate = 4

// runReport runs report-cold: rounds of back-to-back cold passes over the
// twenty golden drivers followed by passes due on a Poisson schedule, each
// output compared byte for byte with its golden.
func runReport(cfg config) (*run, error) {
	r := &run{}
	r.note("the program's input is the same every run: seed %d sets only the open loop's arrival times", cfg.seed)
	var setups []float64
	setup := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := probeSetup()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := setup(1); err != nil {
		return nil, err
	}
	goldens := make([][]byte, len(drivers))
	for i, d := range drivers {
		b, err := os.ReadFile(filepath.Join(cfg.root, "internal", "exp", "testdata", d.name+".golden.json"))
		if err != nil {
			return nil, err
		}
		goldens[i] = b
	}
	check := func(p *pass) {
		p.ok = true
		for i, d := range drivers {
			if !bytes.Equal(p.outputs[i], goldens[i]) {
				r.mismatch("%s differs from its golden", d.name)
				p.ok = false
			}
		}
		p.outputs = nil
	}

	// The untimed first pass absorbs one-time lazy initialisation; its
	// outputs are checked like every other pass.
	first, err := runPass(cfg.trace)
	if err != nil {
		return nil, err
	}
	check(&first)

	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var passes []pass
	var allocMB, gcs []float64
	var rss []float64
	timed := func() (pass, error) {
		var m0, m1 runtime.MemStats
		if cfg.trace {
			runtime.ReadMemStats(&m0)
		}
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return pass{}, err
		}
		p, err := runPass(cfg.trace)
		if err != nil {
			return p, err
		}
		peak, err := peakRSS(os.Getpid())
		if err != nil {
			return p, err
		}
		rss = append(rss, peak)
		if cfg.trace {
			runtime.ReadMemStats(&m1)
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
			r.trace = append(r.trace, newSpan("pass-"+strconv.Itoa(len(passes)), "report.pass", "", p.start, p.wall))
		}
		check(&p)
		r.attempted++
		if !p.ok {
			r.failed++
		}
		passes = append(passes, p)
		return p, nil
	}

	// Rounds as in the serve workloads: a closed phase of back-to-back
	// passes, then an open phase of passes due on a seeded Poisson
	// schedule, run one at a time as separate report invocations would be.
	sc := newSchedule(cfg.seconds, cfg.seed, reportRate)
	var rates, calib []float64
	var open []shot
	var openWall time.Duration
	for i := 0; i < sc.rounds; i++ {
		if err := setup(setupsPerRound); err != nil {
			return nil, err
		}
		calib = calibrateRound(calib)
		deadline := time.Now().Add(sc.closedLen())
		var n int
		var wall time.Duration
		for n == 0 || time.Now().Before(deadline) {
			p, err := timed()
			if err != nil {
				return nil, err
			}
			n++
			wall += p.wall
		}
		rates = append(rates, float64(n)/wall.Seconds())

		var passErr error
		o, owall := sc.open(1, func(_, k int) shot {
			p, err := timed()
			s := shot{seq: k, start: p.start, end: p.start.Add(p.wall)}
			if err != nil {
				passErr = err
			} else if !p.ok {
				s.err = errGolden
			}
			return s
		})
		if passErr != nil {
			return nil, passErr
		}
		open = append(open, o...)
		openWall += owall
	}
	if cfg.trace {
		pprof.StopCPUProfile()
	}

	walls := make([]float64, len(passes))
	var cpu time.Duration
	for i, p := range passes {
		walls[i] = ms(p.wall)
		cpu += p.cpu
	}
	rawCPU := ms(cpu) / float64(len(passes))
	cpuMs := refCPU(rawCPU, calib)
	sort.Float64s(walls)
	tailPct, tailMs := tail(walls)
	lat, lag := latencies(open)
	var good int
	for _, s := range open {
		if s.err == nil && s.end.Sub(s.from()) <= reportLimit {
			good++
		}
	}
	r.note("%d rounds of %v closed on average and %v open: %d timed cold passes (+1 untimed), %d of them due at %d/s; limit %v",
		sc.rounds, sc.closed, sc.phase, len(passes), len(lat), reportRate, reportLimit)
	r.note("per round passes/s %.4g; open-loop latency p50 %.4g ms", rates, quantile(lat, 50))
	r.note("benchmark-process cpu %.6g ms over %d timed passes: %.6g ms/pass; calibration median %.6g ms (reference %g ms)",
		ms(cpu), len(passes), rawCPU, median(calib), calibRefMs)
	r.note("ops_per_s %.6g; latency_p50_ms %.6g; latency_tail_ms %.6g (p%g of %d passes); cpu_ms_per_op %.6g",
		upperQuartile(rates), quantile(walls, 50), tailMs, tailPct, len(passes), cpuMs)
	r.note("goldens: %d/%d passes byte-equal on all %d drivers", r.attempted-r.failed, r.attempted, len(drivers))
	if !cfg.trace {
		r.set("setup_s", median(setups), "s")
		r.set("goodput_ops_per_s", float64(good)/openWall.Seconds(), "1/s")
		r.set("cpu_ms_per_op", cpuMs, "ms")
		r.set("peak_rss_mb", median(rss), "MiB")
		return r, nil
	}

	n := float64(len(passes))
	r.set("loadgen.lag_p99_ms", quantile(lag, 99), "ms")
	r.set("loadgen.sent", n, "count")
	r.set("loadgen.failed", float64(r.failed), "count")
	r.set("loadgen.latency_tail_ms", tailMs, "ms")
	r.set("loadgen.tail_pct", tailPct, "%")
	r.set("loadgen.tail_samples", n, "count")
	r.set("traced.ops_per_s", upperQuartile(rates), "1/s")
	r.set("traced.latency_p50_ms", quantile(walls, 50), "ms")
	r.set("traced.cpu_ms_per_op", cpuMs, "ms")
	r.set("exp.pass_ms", quantile(walls, 50), "ms")
	rest := make([]float64, len(passes))
	for name := range timedDrivers {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.driverMs[name])
		}
		r.set("exp."+name+"_ms", median(xs), "ms")
	}
	for i, p := range passes {
		for name, v := range p.driverMs {
			if !timedDrivers[name] {
				rest[i] += v
			}
		}
	}
	r.set("exp.rest_ms", median(rest), "ms")
	r.set("exp.alloc_mb_per_pass", median(allocMB), "MiB")
	r.set("exp.gc_per_pass", median(gcs), "count")
	shares, profiled, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	setShares(r, shares, profiled)
	if err := memoPass(r); err != nil {
		return nil, err
	}
	if err := probeEventsim(r); err != nil {
		return nil, err
	}

	// The replayed queries are the Figure 15 grid: the four benchmark
	// models on the three evaluation accelerators, whole inference.
	var queries []key
	for m := 0; m < len(dnn.Benchmarks()); m++ {
		for _, a := range []int{2, 3, 0} { // simba, popstar, spacx
			queries = append(queries, key{model: m, accel: a, mode: 0, batch: 1})
		}
	}
	if err := replay(r, queries, len(queries)); err != nil {
		return nil, err
	}
	return r, writeSpans(cfg, r.trace)
}

// probeEventsim times exp.NetworkProbe on the Figure 16 set from cold
// caches and reports the packet simulator's cost per injected packet.
func probeEventsim(r *run) error {
	exp.ResetCaches()
	var packets int
	var d time.Duration
	for _, m := range dnn.Benchmarks() {
		for _, acc := range sim.EvalAccelerators() {
			t0 := time.Now()
			st, err := exp.NetworkProbe(acc, m, 2000, nil)
			dt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("network probe %s/%s: %w", m.Name, acc.Name(), err)
			}
			r.trace = append(r.trace, newSpan("probe-"+m.Name+"-"+acc.Name(), "exp.NetworkProbe", "", t0, dt))
			packets += st.Injected
			d += dt
		}
	}
	r.set("eventsim.packets", float64(packets), "count")
	r.set("eventsim.ns_per_packet", ratio(float64(d), float64(packets)), "ns")
	return nil
}

// memoPass runs one more cold pass on a single worker with every layer
// evaluation the drivers aggregate wrapped through exp.SetLayerWrap. A
// wrapped call that grows exp.CacheSize computed its layer; one that does
// not was served from the memo. One worker keeps the attribution exact.
func memoPass(r *run) error {
	var calls, misses int
	exp.SetParallelism(1)
	exp.SetLayerWrap(func(next sim.LayerRunner) sim.LayerRunner {
		return func(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerResult, error) {
			before := exp.CacheSize()
			res, err := next(acc, l, mode)
			calls++
			if exp.CacheSize() > before {
				misses++
			}
			return res, err
		}
	})
	defer func() {
		exp.SetLayerWrap(nil)
		exp.SetParallelism(0)
	}()
	if _, err := runPass(false); err != nil {
		return err
	}
	r.set("exp.memo_calls", float64(calls), "count")
	r.set("exp.memo_hit_ratio", ratio(float64(calls-misses), float64(calls)), "ratio")
	return nil
}
