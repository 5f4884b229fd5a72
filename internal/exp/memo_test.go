package exp

import (
	"reflect"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/sim"
)

// A layerMemo pushed past its bound drops its entries and keeps answering
// with results identical to the unmemoized runner.
func TestLayerMemoBoundResetsAndMatchesRunLayer(t *testing.T) {
	m := newLayerMemo(sim.RunLayer)
	m.max = 3
	acc := sim.SPACXAccel()
	resets := 0
	for pass := 0; pass < 2; pass++ {
		for _, l := range dnn.AlexNet().Layers {
			before := m.Len()
			got, err := m.Run(acc, l, sim.WholeInference)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunLayer(acc, l, sim.WholeInference)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, %s: memoized result differs from sim.RunLayer", pass, l.Name)
			}
			if m.Len() < before {
				resets++
			}
			if m.Len() > m.max+1 {
				t.Fatalf("memo holds %d entries, bound %d", m.Len(), m.max)
			}
		}
	}
	if resets == 0 {
		t.Fatal("memo never reset past its bound")
	}
}

// unfingerprinted hides its network's Fingerprint method.
type unfingerprinted struct{ network.Model }

func TestLayerMemoRunsUnfingerprintedUncached(t *testing.T) {
	acc := sim.SPACXAccel()
	acc.Arch.Net = unfingerprinted{acc.Arch.Net}
	l := dnn.AlexNet().Layers[0]
	m := newLayerMemo(sim.RunLayer)
	got, err := m.Run(acc, l, sim.WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunLayer(acc, l, sim.WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("uncached result differs from sim.RunLayer")
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("memo cached %d entries for an unfingerprinted network", n)
	}
}
