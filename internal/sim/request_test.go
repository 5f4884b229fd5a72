package sim

import (
	"context"
	"errors"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/obs"
)

func TestRequestRunMatchesRun(t *testing.T) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	want, err := Run(acc, m, WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Request{Accel: acc, Model: m, Mode: WholeInference}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecSec != want.ExecSec || got.TotalEnergy != want.TotalEnergy {
		t.Errorf("Request.Run = (%g, %g), Run = (%g, %g)",
			got.ExecSec, got.TotalEnergy, want.ExecSec, want.TotalEnergy)
	}
}

func TestRequestBatchDoesNotMutateModel(t *testing.T) {
	m := dnn.AlexNet()
	origBatch := m.Layers[0].Batch
	r := Request{Accel: SPACXAccel(), Model: m, Mode: WholeInference, Batch: 4}
	if _, err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	if m.Layers[0].Batch != origBatch {
		t.Errorf("layer 0 batch mutated: %d -> %d", origBatch, m.Layers[0].Batch)
	}
}

func TestRequestBatchMatchesWithBatch(t *testing.T) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	batched := m
	batched.Layers = append([]dnn.Layer(nil), m.Layers...)
	for i := range batched.Layers {
		batched.Layers[i] = batched.Layers[i].WithBatch(4)
	}
	want, err := Run(acc, batched, WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Request{Accel: acc, Model: m, Mode: WholeInference, Batch: 4}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecSec != want.ExecSec || got.TotalEnergy != want.TotalEnergy {
		t.Errorf("batched Request.Run = (%g, %g), want (%g, %g)",
			got.ExecSec, got.TotalEnergy, want.ExecSec, want.TotalEnergy)
	}
}

// TestRequestPointsMatchRun pins the Points contract: the expansion lists
// exactly the layer evaluations Run asks its runner for, in order.
func TestRequestPointsMatchRun(t *testing.T) {
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: LayerByLayer, Batch: 4}
	var seen []Point
	if _, err := r.Run(func(acc Accelerator, l dnn.Layer, mode Mode) (LayerResult, error) {
		seen = append(seen, Point{Accel: acc, Layer: l, Mode: mode})
		return RunLayer(acc, l, mode)
	}); err != nil {
		t.Fatal(err)
	}
	pts := r.Points()
	if len(pts) != len(seen) {
		t.Fatalf("Points() has %d entries, Run evaluated %d layers", len(pts), len(seen))
	}
	for i, p := range pts {
		if p.Layer != seen[i].Layer || p.Mode != seen[i].Mode || p.Accel.Name() != seen[i].Accel.Name() {
			t.Fatalf("point %d = (%s, %v), Run evaluated (%s, %v)",
				i, p.Layer.Name, p.Mode, seen[i].Layer.Name, seen[i].Mode)
		}
	}
}

func TestRequestValidateRejectsNegativeBatch(t *testing.T) {
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference, Batch: -1}
	if _, err := r.Run(nil); err == nil {
		t.Error("negative batch should fail validation")
	}
}

func TestRequestRunObservedAttachesSnapshot(t *testing.T) {
	reg := obs.NewRegistry(nil)
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference}
	res, err := r.RunObserved(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Counters) == 0 {
		t.Error("RunObserved did not attach a metrics snapshot")
	}
}

func TestRequestRunObservedCustomRunnerCancels(t *testing.T) {
	// The custom-runner hook is how CLIs thread signal cancellation into a
	// sequential model run: the runner checks the context per layer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference}
	_, err := r.RunObserved(obs.Nop(), func(acc Accelerator, l dnn.Layer, mode Mode) (LayerResult, error) {
		if err := ctx.Err(); err != nil {
			return LayerResult{}, err
		}
		return RunLayer(acc, l, mode)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
