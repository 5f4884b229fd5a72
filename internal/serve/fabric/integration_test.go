// The distributed-sweep golden harness: an in-process cluster (httptest
// coordinator + K real worker clients, each with its own serve.Service
// compute core) proving the fabric's core contract — a distributed sweep's
// result is byte-identical to a local run — including under injected
// faults: a worker killed mid-batch, a lease expiring and its zombie result
// arriving anyway, a job cancelled while batches are in flight, and a
// server restarting from its job ledger.
package fabric_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/flightrec"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve"
	"spacx/internal/serve/fabric"
	"spacx/internal/serve/jobs"
	"spacx/internal/worker"
)

// sweepBody is the canonical 8-point grid every harness test sweeps: small
// enough to run in milliseconds, varied enough that points land on
// different consistent-hash shards.
var sweepBody = []byte(`{"models":["alexnet","mobilenetv2"],"accels":["spacx","simba"],"modes":["whole","layer"]}`)

// newService builds and starts one simulation core, optionally fabric-fanned.
func newService(t *testing.T, coord *fabric.Coordinator) *serve.Service {
	t.Helper()
	svc := serve.New(serve.Options{Workers: 4, Fabric: coord})
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	t.Cleanup(func() { svc.Close(); cancel() })
	return svc
}

// goldenSweep runs the grid entirely locally — the byte-identity reference.
func goldenSweep(t *testing.T) []byte {
	t.Helper()
	sr, err := newService(t, nil).PrepareSweep(sweepBody)
	if err != nil {
		t.Fatalf("prepare golden sweep: %v", err)
	}
	out, failed, err := sr.Run(context.Background(), nil)
	if err != nil || failed != 0 {
		t.Fatalf("golden sweep: failed=%d err=%v", failed, err)
	}
	return out
}

// computeHook lets a test choreograph faults around the real compute.
type computeHook func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error)

// clusterWorker is one fleet member plus its kill switch.
type clusterWorker struct {
	w        *worker.Worker
	cancel   context.CancelFunc
	done     chan error
	computed atomic.Int64 // points this worker successfully computed
}

// cluster is the in-process fabric fixture: a coordinator behind a real
// HTTP server and K worker clients running their full register/heartbeat/
// lease/upload loops over the wire.
type cluster struct {
	t      *testing.T
	coord  *fabric.Coordinator
	ts     *httptest.Server
	traces *tracing.Collector
	flight *flightrec.Recorder
	ws     []*clusterWorker
}

// startCluster brings up a coordinator with fault-friendly cadences and k
// workers, waiting until every worker is registered. hooks[i], when set,
// wraps worker i's compute.
func startCluster(t *testing.T, k int, hooks map[int]computeHook) *cluster {
	t.Helper()
	traces := tracing.NewCollector(64, nil)
	flight := flightrec.New(512)
	coord := fabric.New(fabric.Options{
		LeaseTTL:    time.Second,
		Heartbeat:   50 * time.Millisecond,
		WorkerTTL:   500 * time.Millisecond,
		LeasePoints: 2,
		Traces:      traces,
		Flight:      flight,
	})
	mux := http.NewServeMux()
	coord.Routes(mux, nil)
	ts := httptest.NewServer(mux)
	c := &cluster{t: t, coord: coord, ts: ts, traces: traces, flight: flight}
	t.Cleanup(func() {
		for i := range c.ws {
			c.kill(i)
		}
		coord.Close()
		ts.Close()
	})
	for i := 0; i < k; i++ {
		c.addWorker(i, hooks[i])
	}
	waitFor(t, 5*time.Second, "all workers registered", func() bool {
		return coord.Workers() == k
	})
	return c
}

func (c *cluster) addWorker(i int, hook computeHook) {
	c.t.Helper()
	svc := newService(c.t, nil) // each worker computes through its own core
	cw := &clusterWorker{done: make(chan error, 1)}
	compute := func(ctx context.Context, p fabric.Point) (fabric.Outcome, error) {
		var o fabric.Outcome
		var err error
		if hook != nil {
			o, err = hook(ctx, p, svc.ComputePoint)
		} else {
			o, err = svc.ComputePoint(ctx, p)
		}
		if err == nil {
			cw.computed.Add(1)
		}
		return o, err
	}
	// Each worker carries the full observability kit: its own trace collector
	// (spans ship back for stitching) and its own registry (snapshots federate
	// on heartbeats).
	wreg := obs.NewRegistry(nil)
	w, err := worker.New(worker.Options{
		URL:      c.ts.URL,
		Name:     fmt.Sprintf("w%d", i),
		Compute:  compute,
		Jobs:     2,
		Poll:     200 * time.Millisecond,
		Retry:    50 * time.Millisecond,
		Recorder: wreg,
		Metrics:  wreg,
		Traces:   tracing.NewCollector(64, nil),
	})
	if err != nil {
		c.t.Fatalf("worker %d: %v", i, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cw.w, cw.cancel = w, cancel
	go func() { cw.done <- w.Run(ctx) }()
	c.ws = append(c.ws, cw)
}

// kill hard-stops worker i: its context dies mid-whatever, in-flight compute
// is cancelled, nothing further is uploaded. Idempotent.
func (c *cluster) kill(i int) {
	c.ws[i].cancel()
	select {
	case err := <-c.ws[i].done:
		c.ws[i].done <- err
	case <-time.After(5 * time.Second):
		c.t.Fatalf("worker %d did not stop", i)
	}
}

// fleetComputed sums successfully computed points across the fleet.
func (c *cluster) fleetComputed() int64 {
	var n int64
	for _, cw := range c.ws {
		n += cw.computed.Load()
	}
	return n
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedByteIdenticalToLocal is the golden determinism test: for
// fleets of 1, 2, and 4 workers, the distributed sweep artifact must equal
// the local artifact byte for byte, with exact progress accounting.
func TestDistributedByteIdenticalToLocal(t *testing.T) {
	golden := goldenSweep(t)
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			c := startCluster(t, k, nil)
			svc := newService(t, c.coord)
			sr, err := svc.PrepareSweep(sweepBody)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			prog := engine.NewProgress()
			out, failed, err := sr.Run(context.Background(), prog.Phase("points"))
			if err != nil || failed != 0 {
				t.Fatalf("distributed sweep: failed=%d err=%v", failed, err)
			}
			if !bytes.Equal(out, golden) {
				t.Fatalf("distributed result differs from local golden:\n got %d bytes: %.200s\nwant %d bytes: %.200s",
					len(out), out, len(golden), golden)
			}
			if got := c.fleetComputed(); got < 8 {
				t.Fatalf("fleet computed %d points, want all 8 (sweep fell back to local?)", got)
			}
			st := prog.Status()
			if st.Total != 8 || st.Done != 8 {
				t.Fatalf("phase counters total=%d done=%d, want 8/8", st.Total, st.Done)
			}
		})
	}
}

// TestWorkerKilledMidBatch injects the fault the fabric exists to survive: a
// worker is SIGKILL-equivalently destroyed while holding a leased batch. Its
// lease expires, the survivor absorbs the orphaned shard, and the merged
// artifact is still byte-identical — no point lost, no point double-counted.
func TestWorkerKilledMidBatch(t *testing.T) {
	golden := goldenSweep(t)
	victimGot := make(chan struct{}, 1)
	hook := func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error) {
		select {
		case victimGot <- struct{}{}:
		default:
		}
		// Hang until the kill: the point is leased but never computed.
		<-ctx.Done()
		return fabric.Outcome{}, ctx.Err()
	}
	c := startCluster(t, 2, map[int]computeHook{1: hook})
	svc := newService(t, c.coord)
	sr, err := svc.PrepareSweep(sweepBody)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	prog := engine.NewProgress()
	type runOut struct {
		out    []byte
		failed int
		err    error
	}
	res := make(chan runOut, 1)
	go func() {
		out, failed, err := sr.Run(context.Background(), prog.Phase("points"))
		res <- runOut{out, failed, err}
	}()
	select {
	case <-victimGot: // the victim holds a lease and is mid-"compute"
	case <-time.After(10 * time.Second):
		t.Fatal("victim worker never received a point")
	}
	c.kill(1)
	r := <-res
	if r.err != nil || r.failed != 0 {
		t.Fatalf("sweep after worker kill: failed=%d err=%v", r.failed, r.err)
	}
	if !bytes.Equal(r.out, golden) {
		t.Fatalf("result after worker kill differs from golden:\n got: %.200s\nwant: %.200s", r.out, golden)
	}
	if st := prog.Status(); st.Done != 8 {
		t.Fatalf("phase done=%d after recovery, want 8 (no double count)", st.Done)
	}
	// The flight recorder must have captured the fault chronology: the
	// victim's lease lapsed (that expiry is what let the sweep finish, so the
	// event is already there) and the silent victim was declared gone.
	if len(c.flight.Find("lease:expire")) == 0 {
		t.Fatal("no lease:expire flight event after killing a lease-holding worker")
	}
	waitFor(t, 3*time.Second, "worker:leave flight event for the victim", func() bool {
		for _, e := range c.flight.Find("worker:leave") {
			if e.Worker == "w1" {
				return true
			}
		}
		return false
	})
}

// TestStaleResultDeliveredAfterExpiry lets a slow worker outlive its lease
// and deliver anyway, racing the survivor's recomputation of the same
// points. First-write-wins merging keeps the artifact byte-identical no
// matter which copy lands first.
func TestStaleResultDeliveredAfterExpiry(t *testing.T) {
	golden := goldenSweep(t)
	start := time.Now()
	var slowed atomic.Bool
	var cl atomic.Pointer[cluster]
	staleSeen := func() bool {
		c := cl.Load()
		return c != nil && len(c.flight.Find("upload:stale")) > 0
	}
	// gate holds any compute that starts after the slow lease has expired
	// (reclaimed copies of its points) until the zombie upload has landed, so
	// the sweep is provably still live when the stale delivery arrives and
	// the flight recorder must capture it. Early computes pass straight
	// through; the wall-clock escape keeps a pathological scheduler from
	// hanging the test.
	gate := func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error) {
		for slowed.Load() && time.Since(start) > 900*time.Millisecond &&
			time.Since(start) < 6*time.Second && !staleSeen() {
			select {
			case <-ctx.Done():
				return fabric.Outcome{}, ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
		return next(ctx, p)
	}
	slowHook := func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error) {
		// First point only: compute the real result immune to cancellation,
		// then sit on it past the lease TTL before handing it back.
		if slowed.CompareAndSwap(false, true) {
			o, err := next(context.WithoutCancel(ctx), p)
			if err != nil {
				return o, err
			}
			time.Sleep(1500 * time.Millisecond) // LeaseTTL is 1s
			return o, nil
		}
		return gate(ctx, p, next)
	}
	c := startCluster(t, 2, map[int]computeHook{0: slowHook, 1: gate})
	cl.Store(c)
	svc := newService(t, c.coord)
	sr, err := svc.PrepareSweep(sweepBody)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	prog := engine.NewProgress()
	out, failed, err := sr.Run(context.Background(), prog.Phase("points"))
	if err != nil || failed != 0 {
		t.Fatalf("sweep with stale delivery: failed=%d err=%v", failed, err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatalf("result with stale delivery differs from golden:\n got: %.200s\nwant: %.200s", out, golden)
	}
	if st := prog.Status(); st.Done != 8 {
		t.Fatalf("phase done=%d, want exactly 8 (stale + recomputed copies must not double count)", st.Done)
	}
	stale := c.flight.Find("upload:stale")
	if len(stale) == 0 {
		t.Fatal("flight recorder captured no upload:stale event for the zombie delivery")
	}
	if stale[0].Lease == "" || stale[0].Sweep == "" {
		t.Fatalf("upload:stale event missing correlation ids: %+v", stale[0])
	}
}

// TestStitchedTraceShowsWorkerSpans drives a distributed sweep under a live
// trace and asserts the cross-process stitching contract end to end: the
// coordinator's exported trace must contain worker-originated spans —
// attributed to every worker that computed points — hanging under the
// coordinator's own lease spans, and the fleet endpoints must reflect the
// run over plain HTTP.
func TestStitchedTraceShowsWorkerSpans(t *testing.T) {
	c := startCluster(t, 2, nil)
	svc := newService(t, c.coord)
	sr, err := svc.PrepareSweep(sweepBody)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx, root := c.traces.StartTrace(context.Background(), "job:sweep")
	out, failed, err := sr.Run(ctx, nil)
	root.End()
	if err != nil || failed != 0 || len(out) == 0 {
		t.Fatalf("distributed sweep: failed=%d err=%v len=%d", failed, err, len(out))
	}
	participated := map[string]bool{}
	for i, cw := range c.ws {
		if cw.computed.Load() > 0 {
			participated[fmt.Sprintf("w%d", i)] = true
		}
	}
	if len(participated) == 0 {
		t.Fatal("no worker computed anything")
	}
	// The final batch's spans ride the upload that completes the sweep and
	// are stitched just after the sweep unblocks, so poll briefly.
	waitFor(t, 3*time.Second, "one stitched span per participating worker", func() bool {
		spans, ok := c.traces.Export(root.TraceID())
		if !ok {
			return false
		}
		seen := map[string]bool{}
		var leaseSpans, pointSpans int
		for _, s := range spans {
			if s.Worker != "" {
				seen[s.Worker] = true
			}
			switch s.Name {
			case "worker:lease":
				leaseSpans++
			case "worker:point":
				pointSpans++
			}
		}
		for w := range participated {
			if !seen[w] {
				return false
			}
		}
		return leaseSpans > 0 && pointSpans >= 8
	})

	// The same run must be visible over the fleet endpoints.
	var fd fabric.FleetData
	getJSON(t, c.ts.URL+"/fleet", &fd)
	if len(fd.Workers) != 2 {
		t.Fatalf("/fleet lists %d workers, want 2", len(fd.Workers))
	}
	for _, w := range fd.Workers {
		if !w.Live {
			t.Fatalf("/fleet reports %s dead while its loop is running", w.Name)
		}
	}
	var dump flightrec.DumpData
	getJSON(t, c.ts.URL+"/fleet/events", &dump)
	kinds := map[string]bool{}
	for _, e := range dump.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"worker:join", "sweep:start", "lease:grant", "sweep:finish"} {
		if !kinds[want] {
			t.Fatalf("/fleet/events missing %q; got kinds %v", want, kinds)
		}
	}
}

// getJSON fetches url and decodes the response body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// newJobsServer mounts a jobs manager over svc on a test HTTP server.
func newJobsServer(t *testing.T, svc *serve.Service, ledgerPath string) (*jobs.Manager, *httptest.Server) {
	t.Helper()
	mgr, err := jobs.NewManager(jobs.Options{
		Prepare: func(body []byte) (jobs.SweepRun, error) {
			sr, err := svc.PrepareSweep(body)
			if err != nil {
				return nil, err
			}
			return sr, nil
		},
		Path:         ledgerPath,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	mux := http.NewServeMux()
	mgr.Routes(mux, nil)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { mgr.Close(); ts.Close() })
	return mgr, ts
}

// TestCancelFannedOutJob cancels a job whose batches are in flight on real
// workers and asserts the cancellation reaches all the way down: the job's
// context kills the coordinator sweep, lease reconciliation cancels the
// workers' compute contexts, and the SSE stream reports "cancelled".
func TestCancelFannedOutJob(t *testing.T) {
	inFlight := make(chan struct{}, 16)
	unblocked := make(chan struct{}, 16)
	hook := func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error) {
		inFlight <- struct{}{}
		<-ctx.Done() // never completes unless cancelled
		unblocked <- struct{}{}
		return fabric.Outcome{}, ctx.Err()
	}
	c := startCluster(t, 2, map[int]computeHook{0: hook, 1: hook})
	svc := newService(t, c.coord)
	_, ts := newJobsServer(t, svc, "")

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(sweepBody))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, st)
	}

	select {
	case <-inFlight: // at least one worker batch is computing
	case <-time.After(10 * time.Second):
		t.Fatal("no worker batch ever started")
	}

	// Subscribe to the SSE stream before cancelling so the terminal event is
	// observed, then DELETE the job.
	events, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer events.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", dresp.StatusCode)
	}

	// The in-flight worker compute must be released by lease reconciliation.
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation never reached the in-flight worker batch")
	}

	// The SSE stream must end with an event named "cancelled".
	terminal := ""
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			terminal = strings.TrimPrefix(line, "event: ")
		}
	}
	if terminal != "cancelled" {
		t.Fatalf("SSE terminal event = %q, want \"cancelled\"", terminal)
	}
}

// TestRestartRecoversFabricJobFromLedger simulates the coordinator host
// dying mid-distributed-sweep (no terminal ledger line) and restarting: the
// interrupted job is recovered as failed, and resubmitting the same request
// against the restarted stack yields the golden bytes.
func TestRestartRecoversFabricJobFromLedger(t *testing.T) {
	golden := goldenSweep(t)
	path := filepath.Join(t.TempDir(), "jobs.jsonl")

	// First life: a fleet whose workers hang forever, so the job sticks at
	// running; the "crash" is simply never closing this manager before the
	// second life reads the ledger.
	stuck := make(chan struct{})
	hook := func(ctx context.Context, p fabric.Point, next worker.ComputeFunc) (fabric.Outcome, error) {
		select {
		case <-stuck:
			return next(ctx, p)
		case <-ctx.Done():
			return fabric.Outcome{}, ctx.Err()
		}
	}
	c1 := startCluster(t, 1, map[int]computeHook{0: hook})
	svc1 := newService(t, c1.coord)
	mgr1, err := jobs.NewManager(jobs.Options{
		Prepare: func(body []byte) (jobs.SweepRun, error) {
			sr, err := svc1.PrepareSweep(body)
			if err != nil {
				return nil, err
			}
			return sr, nil
		},
		Path: path,
	})
	if err != nil {
		t.Fatalf("first manager: %v", err)
	}
	j, err := mgr1.Submit(sweepBody)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, 5*time.Second, "job running", func() bool { return j.State() == jobs.Running })
	// Give the running transition time to land in the ledger, then "crash".
	waitFor(t, 5*time.Second, "running state persisted", func() bool {
		data, err := os.ReadFile(path)
		return err == nil && bytes.Contains(data, []byte(`"state":"running"`))
	})
	t.Cleanup(func() { close(stuck); mgr1.Close() }) // release the zombie at test end

	// Second life: recovery must mark the interrupted job failed...
	c2 := startCluster(t, 2, nil)
	svc2 := newService(t, c2.coord)
	mgr2, ts2 := newJobsServer(t, svc2, path)
	rj, ok := mgr2.Get(j.ID())
	if !ok {
		t.Fatalf("restarted manager lost job %s", j.ID())
	}
	if rj.State() != jobs.Failed {
		t.Fatalf("recovered job state = %s, want failed (interrupted by restart)", rj.State())
	}

	// ...and a resubmission of the same request completes distributed, with
	// the golden bytes.
	resp, err := http.Post(ts2.URL+"/v1/jobs", "application/json", bytes.NewReader(sweepBody))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode resubmit: %v", err)
	}
	resp.Body.Close()
	nj, ok := mgr2.Get(st.ID)
	if !ok {
		t.Fatalf("resubmitted job %s missing", st.ID)
	}
	select {
	case <-nj.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("resubmitted job never finished")
	}
	if nj.State() != jobs.Done {
		t.Fatalf("resubmitted job state = %s, want done", nj.State())
	}
	if !bytes.Equal(nj.Result(), golden) {
		t.Fatalf("recovered-run result differs from golden:\n got: %.200s\nwant: %.200s", nj.Result(), golden)
	}
	if got := nj.Status().DonePoints; got != 8 {
		t.Fatalf("done points = %d, want exactly 8 (no double count across restart)", got)
	}
}

// TestJobSubmitBadGridThroughFabricStack exercises the Prepare-closure error
// path end to end: an invalid grid must be rejected at submission (400) and
// never reach the fleet.
func TestJobSubmitBadGridThroughFabricStack(t *testing.T) {
	c := startCluster(t, 1, nil)
	svc := newService(t, c.coord)
	_, ts := newJobsServer(t, svc, "")
	for name, body := range map[string]string{
		"unknown model": `{"models":["nosuch"],"accels":["spacx"]}`,
		"empty grid":    `{"models":[],"accels":[]}`,
		"trailing data": `{"models":["alexnet"],"accels":["spacx"]} true`,
		"unknown field": `{"models":["alexnet"],"accels":["spacx"],"nope":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := c.fleetComputed(); got != 0 {
		t.Fatalf("fleet computed %d points for rejected submissions, want 0", got)
	}
}
