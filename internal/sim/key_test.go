package sim

import (
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/photonic"
)

// TestLayerKeyIdentity: perturbing any single input of a layer evaluation
// changes its key, and independently built equal configurations share one.
// Geometry fields are edited on the architecture alone, so each row fails
// if its AccelKey field is dropped even though a rebuilt network would also
// change the fingerprint.
func TestLayerKeyIdentity(t *testing.T) {
	l := dnn.NewSameConv("c", 56, 3, 64, 64, 1)
	key := func(acc Accelerator, l dnn.Layer, mode Mode) LayerKey {
		t.Helper()
		ak, ok := acc.Key()
		if !ok {
			t.Fatalf("%s: no key", acc.Name())
		}
		return LayerKey{Accel: ak, Layer: l, Mode: mode}
	}
	custom := func(m, n, gef, gk int, p photonic.Params) Accelerator {
		t.Helper()
		acc, err := SPACXAccelCustom(m, n, gef, gk, p, true)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	with := func(edit func(*Accelerator)) Accelerator {
		acc := SPACXAccel()
		edit(&acc)
		return acc
	}
	base := key(SPACXAccel(), l, WholeInference)

	rows := []struct {
		Name string
		Got  bool // the row's key equals base
		Want bool
	}{
		{"same config built independently", key(custom(EvalM, EvalN, EvalGEF, EvalGK, photonic.Moderate()), l, WholeInference) == base, true},
		{"M", key(with(func(a *Accelerator) { a.Arch.M /= 2 }), l, WholeInference) == base, false},
		{"N", key(with(func(a *Accelerator) { a.Arch.N /= 2 }), l, WholeInference) == base, false},
		{"GEF", key(with(func(a *Accelerator) { a.Arch.GEF /= 2 }), l, WholeInference) == base, false},
		{"GK", key(with(func(a *Accelerator) { a.Arch.GK /= 2 }), l, WholeInference) == base, false},
		{"PE buffer", key(with(func(a *Accelerator) { a.Arch.PEBufBytes *= 2 }), l, WholeInference) == base, false},
		{"GB", key(with(func(a *Accelerator) { a.Arch.GBBytes *= 2 }), l, WholeInference) == base, false},
		{"clock", key(with(func(a *Accelerator) { a.Arch.ClockHz *= 2 }), l, WholeInference) == base, false},
		{"vector width", key(with(func(a *Accelerator) { a.Arch.VectorWidth *= 2 }), l, WholeInference) == base, false},
		{"bandwidth allocation", key(SPACXAccelNoBA(), l, WholeInference) == base, false},
		{"photonic params", key(custom(EvalM, EvalN, EvalGEF, EvalGK, photonic.Aggressive()), l, WholeInference) == base, false},
		{"layer batch", key(SPACXAccel(), l.WithBatch(2), WholeInference) == base, false},
		{"mode", key(SPACXAccel(), l, LayerByLayer) == base, false},
	}
	for _, r := range rows {
		if r.Got != r.Want {
			t.Errorf("%s: key equals base = %v, want %v", r.Name, r.Got, r.Want)
		}
	}
}

// unfingerprinted hides its network's Fingerprint method.
type unfingerprinted struct{ network.Model }

func TestAccelKeyNeedsFingerprint(t *testing.T) {
	acc := SPACXAccel()
	acc.Arch.Net = unfingerprinted{acc.Arch.Net}
	if k, ok := acc.Key(); ok {
		t.Fatalf("network without a fingerprint keyed as %+v", k)
	}
}
