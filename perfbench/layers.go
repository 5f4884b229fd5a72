package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
	"spacx/internal/sim"
)

// span is one benchmark-side span. Spans of one request share Req: for a
// serve request that is the server's X-Spacx-Trace id, so client and
// server spans join.
type span struct {
	Req     string  `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	StartNS int64   `json:"start_unix_ns"`
	SchedNS int64   `json:"sched_unix_ns,omitempty"` // open loop: when it was due
	DurUS   float64 `json:"dur_us"`
}

func newSpan(req, name, parent string, start time.Time, d time.Duration) span {
	return span{Req: req, Name: name, Parent: parent, StartNS: start.UnixNano(), DurUS: float64(d) / 1e3}
}

// maxSpans bounds the spans a traced run keeps in memory.
const maxSpans = 500000

// writeSpans writes the traced run's spans as JSON lines to
// <out>/<workload>-<seed>.jsonl.
func writeSpans(cfg config, spans []span) error {
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stagePriority partitions a serve:* span's wall time: each instant goes to
// the first listed child span covering it, and instants no child covers
// are the span's own (front-end) time. Priority matters only for a sweep,
// whose points' spans overlap.
var stagePriority = []struct{ span, metric string }{
	{"sim:model", "sim.model_us"},
	{"engine:compute", "engine.compute_us"},
	{"queue:wait", "serve.queue.wait_us"},
	{"flight:wait", "serve.flight.wait_us"},
	{"cache:lookup", "serve.cache.lookup_us"},
	{"", "serve.child_other_us"}, // any other child span
}

// tracesSampled is how many closed-loop requests, the last of each round
// in equal parts, have their server span trees fetched (the server keeps
// its last 256 traces).
const tracesSampled = 100

// serveTrace is the traced run's server-side collection.
type serveTrace struct {
	before, after obs.Snapshot
	prof          chan profResult
	shares        map[string]float64
	profiledMs    float64
	stages        map[string]float64 // seconds per stage metric, summed over traces
	spanSec       float64            // summed serve:* span time
	traceOps      int
	traces        int
	spans         []span
}

type profResult struct {
	data []byte
	err  error
}

// startServeTrace snapshots the server's metrics and starts a CPU profile
// capture covering the timed rounds.
func startServeTrace(srv *server, d time.Duration) (*serveTrace, error) {
	t := &serveTrace{prof: make(chan profResult, 1), stages: map[string]float64{}}
	var err error
	if t.before, err = srv.snapshot(); err != nil {
		return nil, err
	}
	secs := int(d.Seconds())
	if secs < 1 {
		secs = 1
	}
	go func() {
		data, err := srv.get("/debug/pprof/profile?seconds=" + strconv.Itoa(secs))
		t.prof <- profResult{data, err}
	}()
	return t, nil
}

// sample fetches and partitions the span trees of the last n answered
// requests of a closed-loop phase, before later requests push them out of
// the server's trace store.
func (t *serveTrace) sample(srv *server, closed []shot, opsPer, n int) error {
	byEnd := append([]shot(nil), closed...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end.After(byEnd[j].end) })
	taken := 0
	for _, s := range byEnd {
		if taken == n {
			break
		}
		if s.trace == "" || s.status != http.StatusOK {
			continue
		}
		b, err := srv.get("/traces/" + s.trace)
		if err != nil {
			continue // evicted from the server's trace store
		}
		var td tracing.TraceData
		if err := json.Unmarshal(b, &td); err != nil {
			return fmt.Errorf("trace %s: %w", s.trace, err)
		}
		if !td.Complete || len(td.Spans) != 1 || !strings.HasPrefix(td.Spans[0].Name, "serve:") {
			continue
		}
		t.partition(td.ID, td.Spans[0])
		taken++
		t.traces++
		t.traceOps += opsPer
	}
	return nil
}

// finish takes the second metrics snapshot and collects the CPU profile.
func (t *serveTrace) finish(srv *server) error {
	var err error
	if t.after, err = srv.snapshot(); err != nil {
		return err
	}
	p := <-t.prof
	if p.err != nil {
		return fmt.Errorf("cpu profile: %w", p.err)
	}
	t.shares, t.profiledMs, err = cpuShares(p.data)
	return err
}

// partition splits root's wall time over stagePriority and records the
// tree's spans.
func (t *serveTrace) partition(id string, root tracing.SpanData) {
	type iv struct {
		lo, hi int64
		rank   int
	}
	rootLo := root.StartUTC.UnixNano()
	rootHi := rootLo + int64(root.DurationSec*1e9)
	t.spans = append(t.spans, span{Req: id, Name: root.Name, StartNS: rootLo, DurUS: root.DurationSec * 1e6})
	var ivs []iv
	var walk func(s tracing.SpanData)
	walk = func(s tracing.SpanData) {
		for _, c := range s.Children {
			lo := c.StartUTC.UnixNano()
			hi := lo + int64(c.DurationSec*1e9)
			rank := len(stagePriority) - 1
			for i, p := range stagePriority {
				if p.span == c.Name {
					rank = i
					break
				}
			}
			ivs = append(ivs, iv{max(lo, rootLo), min(hi, rootHi), rank})
			t.spans = append(t.spans, span{Req: id, Name: c.Name, Parent: s.Name, StartNS: lo, DurUS: c.DurationSec * 1e6})
			walk(c)
		}
	}
	walk(root)
	cuts := []int64{rootLo, rootHi}
	for _, v := range ivs {
		if v.lo < v.hi {
			cuts = append(cuts, v.lo, v.hi)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		best := -1
		for _, v := range ivs {
			if v.lo <= lo && hi <= v.hi && (best < 0 || v.rank < best) {
				best = v.rank
			}
		}
		name := "serve.front_self_us"
		if best >= 0 {
			name = stagePriority[best].metric
		}
		t.stages[name] += float64(hi-lo) / 1e9
	}
	t.spanSec += float64(rootHi-rootLo) / 1e9
}

// report sets the serve-layer metrics: span stages per op from the
// partitioned traces, counters from the /metrics deltas over the timed
// rounds, and the CPU profile's package shares.
func (t *serveTrace) report(r *run) {
	perOp := func(sec float64) float64 {
		if t.traceOps == 0 {
			return 0
		}
		return sec * 1e6 / float64(t.traceOps)
	}
	r.set("serve.traces", float64(t.traces), "count")
	r.set("serve.span_us", perOp(t.spanSec), "us")
	r.set("serve.front_self_us", perOp(t.stages["serve.front_self_us"]), "us")
	sum := t.stages["serve.front_self_us"]
	for _, p := range stagePriority {
		r.set(p.metric, perOp(t.stages[p.metric]), "us")
		sum += t.stages[p.metric]
	}
	r.note("span partition over %d traces: stages + uncovered = %.6fs, serve:* spans = %.6fs",
		t.traces, sum, t.spanSec)

	d := func(name string) float64 { return counter(t.after, name) - counter(t.before, name) }
	hits, misses, coal := d("spacx_serve_cache_hits_total"), d("spacx_serve_cache_misses_total"), d("spacx_serve_coalesced_total")
	lookups := hits + misses + coal
	r.set("serve.cache.lookups", lookups, "count")
	r.set("serve.cache.hit_ratio", ratio(hits, lookups), "ratio")
	r.set("serve.cache.coalesced", coal, "count")
	r.set("serve.cache.evictions", d("spacx_serve_cache_evictions_total"), "count")
	r.set("serve.queue.rejected", d("spacx_serve_queue_rejected_total"), "count")
	n, sum2 := histDelta(t.before, t.after, "spacx_serve_batch_size")
	r.set("serve.queue.batch_size_mean", ratio(sum2, n), "count")
	runs := d("spacx_serve_engine_runs_total")
	r.set("serve.engine.runs", runs, "count")
	r.set("serve.batch.primes", d("spacx_serve_batch_primes_total"), "count")
	r.set("serve.batch.primed_points_per_job", ratio(d("spacx_serve_batch_primed_points_total"), runs), "count")
	n, sum2 = histDelta(t.before, t.after, "spacx_sim_batch_ns_per_point")
	r.set("serve.batch.ns_per_point", ratio(sum2, n), "ns")
	n, sum2 = histDelta(t.before, t.after, "spacx_serve_request_seconds")
	r.set("serve.request_us", ratio(sum2, n)*1e6, "us")
	setShares(r, t.shares, t.profiledMs)
}

func setShares(r *run, shares map[string]float64, profiledMs float64) {
	for _, b := range cpuBuckets {
		r.set("proc.cpu_share."+b.name, shares[b.name], "ratio")
	}
	r.set("proc.cpu_profiled_ms", profiledMs, "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counter sums a counter over all its label sets.
func counter(s obs.Snapshot, name string) float64 {
	var v float64
	for _, p := range s.Counters {
		if p.Name == name {
			v += p.Value
		}
	}
	return v
}

// histDelta returns the count and sum a histogram (all label sets) gained
// between two snapshots.
func histDelta(a, b obs.Snapshot, name string) (count, sum float64) {
	for _, h := range b.Histograms {
		if h.Name == name {
			count += float64(h.Count)
			sum += h.Sum
		}
	}
	for _, h := range a.Histograms {
		if h.Name == name {
			count -= float64(h.Count)
			sum -= h.Sum
		}
	}
	return count, sum
}

// replay times the workload's first n distinct queries in-process through
// sim.Request.Run with a timing layer runner, then each of their layers
// through Flow.Map and dataflow.MeasureFlows.
func replay(r *run, queries []key, n int) error {
	seen := map[key]bool{}
	var distinct []key
	for _, k := range queries {
		if !seen[k] && len(distinct) < n {
			seen[k] = true
			distinct = append(distinct, k)
		}
	}
	var runs, layers, maps, flows int
	var runT, layerT, mapT, flowT time.Duration
	for i, k := range distinct {
		id := "replay-" + strconv.Itoa(i)
		req := k.request()
		timed := func(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerResult, error) {
			t0 := time.Now()
			res, err := sim.RunLayer(acc, l, mode)
			d := time.Since(t0)
			layerT += d
			layers++
			r.trace = append(r.trace, newSpan(id, "sim.RunLayer", "sim.Request.Run", t0, d))
			return res, err
		}
		t0 := time.Now()
		if _, err := req.Run(timed); err != nil {
			return fmt.Errorf("replay %s: %w", k, err)
		}
		d := time.Since(t0)
		runT += d
		runs++
		r.trace = append(r.trace, newSpan(id, "sim.Request.Run", "", t0, d))
		for _, p := range req.Points() {
			t1 := time.Now()
			prof, err := p.Accel.Flow.Map(p.Layer, p.Accel.Arch)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("replay %s: map %s: %w", k, p.Layer.Name, err)
			}
			dataflow.MeasureFlows(p.Accel.Arch.Net, prof.Flows)
			t3 := time.Now()
			mapT += t2.Sub(t1)
			flowT += t3.Sub(t2)
			maps++
			flows += len(prof.Flows)
			r.trace = append(r.trace, newSpan(id, "dataflow.Flow.Map", "", t1, t2.Sub(t1)),
				newSpan(id, "dataflow.MeasureFlows", "", t2, t3.Sub(t2)))
		}
	}
	r.set("sim.replay_queries", float64(runs), "count")
	r.set("sim.run_layer_ns", ratio(float64(layerT), float64(layers)), "ns")
	r.set("sim.request_run_us", ratio(float64(runT)/1e3, float64(runs)), "us")
	r.set("dataflow.map_ns", ratio(float64(mapT), float64(maps)), "ns")
	r.set("dataflow.measure_flows_ns", ratio(float64(flowT), float64(maps)), "ns")
	r.set("dataflow.flows_per_layer", ratio(float64(flows), float64(maps)), "count")
	return nil
}
