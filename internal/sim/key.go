package sim

import (
	"spacx/internal/dnn"
	"spacx/internal/network"
)

// AccelKey is the comparable identity of an accelerator configuration:
// every accelerator field that can change a LayerResult. The network enters
// through its configuration fingerprint, so two independently built
// accelerators with the same configuration have equal keys.
type AccelKey struct {
	Arch        string
	Net         string // network.FingerprintOf the architecture's network
	Flow        string
	M, N        int
	VectorWidth int
	ClockHz     float64
	PEBufBytes  int
	GBBytes     int
	GEF, GK     int
}

// Key returns the accelerator's identity, or ok=false when its network
// model has no fingerprint (such an accelerator cannot be memoized).
func (a Accelerator) Key() (AccelKey, bool) {
	fp, ok := network.FingerprintOf(a.Arch.Net)
	if !ok {
		return AccelKey{}, false
	}
	return AccelKey{
		Arch: a.Arch.Name, Net: fp, Flow: a.Flow.Name(),
		M: a.Arch.M, N: a.Arch.N,
		VectorWidth: a.Arch.VectorWidth, ClockHz: a.Arch.ClockHz,
		PEBufBytes: a.Arch.PEBufBytes, GBBytes: a.Arch.GBBytes,
		GEF: a.Arch.GEF, GK: a.Arch.GK,
	}, true
}

// LayerKey identifies one layer evaluation — exactly the argument triple of
// RunLayer, with the accelerator reduced to its AccelKey. Equal keys yield
// identical LayerResults from any deterministic LayerRunner.
type LayerKey struct {
	Accel AccelKey
	Layer dnn.Layer // shape, batch included
	Mode  Mode
}
