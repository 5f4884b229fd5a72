package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/sim"
)

func TestDecodeSimulateRequestNormalizes(t *testing.T) {
	req, err := decodeSimulateRequest([]byte(`{"model": "resnet50", "accel": "popstar"}`), 256)
	if err != nil {
		t.Fatal(err)
	}
	if req.Mode != "whole" {
		t.Fatalf("default mode = %q, want whole", req.Mode)
	}
	if req.Batch != 1 {
		t.Fatalf("default batch = %d, want 1", req.Batch)
	}
}

func TestDecodeSimulateRequestRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          ``,
		"not json":       `hello`,
		"array":          `[1, 2]`,
		"unknown field":  `{"model": "resnet50", "accel": "spacx", "extra": true}`,
		"trailing":       `{"model": "resnet50", "accel": "spacx"} null`,
		"no model":       `{"accel": "spacx"}`,
		"no accel":       `{"model": "resnet50"}`,
		"bad mode":       `{"model": "resnet50", "accel": "spacx", "mode": "fast"}`,
		"batch low":      `{"model": "resnet50", "accel": "spacx", "batch": -2}`,
		"batch high":     `{"model": "resnet50", "accel": "spacx", "batch": 257}`,
		"negative loss":  `{"model": "resnet50", "accel": "spacx", "loss_budget_db": -0.5}`,
		"wrong type":     `{"model": 7, "accel": "spacx"}`,
		"nested garbage": `{"model": {"a": 1}, "accel": "spacx"}`,
	}
	for name, body := range cases {
		if _, err := decodeSimulateRequest([]byte(body), 256); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
}

func TestBuildQueryKeysAreDistinct(t *testing.T) {
	reqs := []SimulateRequest{
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 2},
		{Model: "alexnet", Accel: "spacx", Mode: "layer", Batch: 1},
		{Model: "alexnet", Accel: "simba", Mode: "whole", Batch: 1},
		{Model: "vgg16", Accel: "spacx", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "spacx-noba", Mode: "whole", Batch: 1},
	}
	seen := map[string]SimulateRequest{}
	for _, r := range reqs {
		q, err := buildQuery(r)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if prev, dup := seen[q.key]; dup {
			t.Fatalf("key collision between %+v and %+v: %q", prev, r, q.key)
		}
		seen[q.key] = r
		if !strings.Contains(q.key, r.Model) || !strings.Contains(q.key, r.Accel) {
			t.Fatalf("key %q does not name its model and accelerator", q.key)
		}
	}
}

func TestEncodeSimulateResponseDeterministic(t *testing.T) {
	q, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.req.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := encodeSimulateResponse(q, res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeSimulateResponse(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoding the same result changed the bytes")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("response body is not newline-terminated")
	}
}

func TestCatalogsBuild(t *testing.T) {
	for _, e := range modelCatalog {
		if len(e.model().Layers) == 0 {
			t.Errorf("model %s builds empty", e.Name)
		}
	}
	for _, e := range accelCatalog {
		ra := e.resolve()
		if ra.acc.Arch.Net == nil {
			t.Errorf("accelerator %s builds without a network", e.Name)
		}
		if ra.fp == "" {
			t.Errorf("accelerator %s has no network fingerprint", e.Name)
		}
		if _, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: e.Name, Mode: "whole", Batch: 1}); err != nil {
			t.Errorf("accelerator %s does not resolve: %v", e.Name, err)
		}
	}
	if loss, ok := spacxWorstCaseLoss(); !ok || loss <= 0 {
		t.Errorf("spacx worst-case loss = %v, %v; want positive", loss, ok)
	}
}

// buildQuery must construct nothing per request: EfficientNet-B7 has about
// ten times AlexNet's layers, so any per-call model or network build would
// show up as a difference in allocations.
func TestBuildQueryAllocsIndependentOfModel(t *testing.T) {
	allocs := func(model string) float64 {
		req := SimulateRequest{Model: model, Accel: "spacx", Mode: "whole", Batch: 1}
		return testing.AllocsPerRun(100, func() {
			if _, err := buildQuery(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("alexnet"), allocs("efficientnetb7")
	if small != large {
		t.Fatalf("buildQuery allocs/op: alexnet %v, efficientnetb7 %v; want equal", small, large)
	}
}

// Every catalog (model, accel, mode) query served concurrently through the
// production path — the lazily resolved catalog entries, buildQuery and
// execute — must answer with exactly the aggregates of a run on freshly
// constructed presets.
func TestConcurrentCatalogResolutionMatchesFreshPresets(t *testing.T) {
	fresh := map[string]struct {
		build func() sim.Accelerator
		loss  func() (float64, bool)
	}{
		"spacx":      {sim.SPACXAccel, spacxWorstCaseLoss},
		"spacx-noba": {sim.SPACXAccelNoBA, spacxWorstCaseLoss},
		"simba":      {sim.SimbaAccel, noLoss},
		"popstar":    {sim.POPSTARAccel, noLoss},
	}
	s := New(Options{})
	var wg sync.WaitGroup
	for _, req := range catalogRequests(1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := buildQuery(req)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			body, err := s.execute(context.Background(), q)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			var got SimulateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Errorf("%+v: decode body: %v", req, err)
				return
			}
			m, err := dnn.ByName(req.Model)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			mode := sim.WholeInference
			if req.Mode == "layer" {
				mode = sim.LayerByLayer
			}
			res, err := sim.Request{Accel: fresh[req.Accel].build(), Model: m, Mode: mode, Batch: req.Batch}.Run(nil)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			want := SimulateResponse{
				Model: req.Model, Accel: req.Accel, Mode: req.Mode, Batch: req.Batch,
				Layers:         len(res.Layers),
				ExecSec:        res.ExecSec,
				ComputeSec:     res.ComputeSec,
				CommSec:        res.CommSec,
				TotalEnergyJ:   res.TotalEnergy,
				ComputeEnergyJ: res.ComputeEnergy,
				NetworkEnergyJ: res.NetworkEnergy,
			}
			for _, lr := range res.Layers {
				want.DRAMBytes += lr.DRAMBytes * int64(lr.Layer.Repeat)
			}
			if loss, ok := fresh[req.Accel].loss(); ok {
				want.WorstCaseLossDB = &loss
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: served %+v, fresh presets give %+v", req, got, want)
			}
		}()
	}
	wg.Wait()
}

// FuzzSimulateRequest drives the /v1/simulate decoder with arbitrary bytes:
// it must return a clean error (never panic), and anything it accepts must
// be fully normalized and within the validated ranges.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx"}`))
	f.Add([]byte(`{"model": "resnet50", "accel": "simba", "mode": "layer", "batch": 8}`))
	f.Add([]byte(`{"model": "vgg16", "accel": "popstar", "loss_budget_db": 3.5}`))
	f.Add([]byte(`{"model": "", "accel": ""}`))
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx", "batch": -1}`))
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx"} trailing`))
	f.Add([]byte(`{"unknown": true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\xff\xfe invalid utf8"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSimulateRequest(data, 256)
		if err != nil {
			return
		}
		if _, ok := modelByName(req.Model); !ok {
			t.Fatalf("accepted unknown model %q", req.Model)
		}
		if _, ok := accelByName(req.Accel); !ok {
			t.Fatalf("accepted unknown accelerator %q", req.Accel)
		}
		if req.Mode != "whole" && req.Mode != "layer" {
			t.Fatalf("accepted unnormalized mode %q", req.Mode)
		}
		if req.Batch < 1 || req.Batch > 256 {
			t.Fatalf("accepted out-of-range batch %d", req.Batch)
		}
		if req.LossBudgetDB < 0 {
			t.Fatalf("accepted negative loss budget %g", req.LossBudgetDB)
		}
		// Accepted requests must also resolve and validate at the sim layer.
		q, err := buildQuery(req)
		if err != nil {
			t.Fatalf("accepted request does not build a query: %v", err)
		}
		if err := q.req.Validate(); err != nil {
			t.Fatalf("accepted request fails sim validation: %v", err)
		}
	})
}

// FuzzSweepRequest drives the /v1/sweep decoder and grid expansion with
// arbitrary bytes: they must return a clean error (never panic), and every
// accepted point's query must carry the cache key buildQuery derives for
// that point on its own.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"models": ["alexnet"], "accels": ["spacx"]}`))
	f.Add([]byte(`{"models": ["alexnet", "vgg16"], "accels": ["spacx", "simba"], "modes": ["whole", "layer"], "batches": [1, 4]}`))
	f.Add([]byte(`{"models": ["resnet50"], "accels": ["popstar"], "modes": [""], "batches": [0], "loss_budget_db": 2.5}`))
	f.Add([]byte(`{"models": ["lenet"], "accels": ["spacx"]}`))
	f.Add([]byte(`{"models": ["alexnet"], "accels": ["spacx"], "batches": [-1, 257]}`))
	f.Add([]byte(`{"models": ["alexnet"], "accels": ["spacx"], "loss_budget_db": -1}`))
	f.Add([]byte(`{"models": [], "accels": []}`))
	f.Add([]byte(`{"models": ["alexnet"], "accels": ["spacx"]} trailing`))
	f.Add([]byte(`{"grid": true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	s := New(Options{MaxSweepPoints: 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := s.PrepareSweep(data)
		if err != nil {
			return
		}
		if run.Len() == 0 || run.Len() > 16 || len(run.queries) != run.Len() {
			t.Fatalf("accepted sweep has %d points and %d queries (cap 16)", run.Len(), len(run.queries))
		}
		for i, pt := range run.points {
			want, err := buildQuery(SimulateRequest{
				Model: pt.Model, Accel: pt.Accel, Mode: pt.Mode, Batch: pt.Batch,
				LossBudgetDB: run.req.LossBudgetDB,
			})
			if err != nil {
				t.Fatalf("accepted point %+v does not build a query: %v", pt, err)
			}
			if got := run.queries[i]; got.key != want.key || got.wire != want.wire {
				t.Fatalf("point %d: query %q %+v, buildQuery gives %q %+v", i, got.key, got.wire, want.key, want.wire)
			}
		}
	})
}

// FuzzThermalRequest drives the /v1/thermal decoder with arbitrary bytes: it
// must return a clean error (never panic), and anything it accepts must be
// normalized, finite, and within the step and simulated-time caps.
func FuzzThermalRequest(f *testing.F) {
	f.Add([]byte(`{"model": "alexnet"}`))
	f.Add([]byte(`{"model": "resnet50", "mode": "layer", "profile": "bursty", "seed": 7, "steps": 40, "step_sec": 0.5, "feedback": false}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 10, "step_sec": 1e999}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 10, "step_sec": -0}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 40, "step_sec": 100000}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 9223372036854775807}`))
	f.Add([]byte(`{"model": "nope", "profile": "diurnal"}`))
	f.Add([]byte(`{"model": "alexnet"} {}`))
	f.Add([]byte(`{"bogus": 1}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSteps = 40
		req, err := decodeThermalRequest(data, maxSteps)
		if err != nil {
			return
		}
		if _, ok := modelByName(req.Model); !ok {
			t.Fatalf("accepted unknown model %q", req.Model)
		}
		if req.Mode != "whole" && req.Mode != "layer" {
			t.Fatalf("accepted unnormalized mode %q", req.Mode)
		}
		known := false
		for _, p := range exp.Profiles() {
			known = known || req.Profile == p
		}
		if !known {
			t.Fatalf("accepted unknown profile %q", req.Profile)
		}
		if req.Steps < 1 || req.Steps > maxSteps {
			t.Fatalf("accepted out-of-range steps %d", req.Steps)
		}
		if math.IsNaN(req.StepSec) || math.IsInf(req.StepSec, 0) || req.StepSec <= 0 {
			t.Fatalf("accepted non-positive or non-finite step_sec %g", req.StepSec)
		}
		if simSec := float64(req.Steps) * req.StepSec; simSec > maxThermalSimSec {
			t.Fatalf("accepted %g simulated seconds, cap is %d", simSec, maxThermalSimSec)
		}
	})
}
