package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/photonic"
)

func TestModeString(t *testing.T) {
	if LayerByLayer.String() != "layer-by-layer" || WholeInference.String() != "whole-inference" {
		t.Error("unexpected mode strings")
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{"whole": WholeInference, "layer": LayerByLayer} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "Whole", "layer-by-layer"} {
		_, err := ParseMode(name)
		if want := fmt.Sprintf("unknown mode %q (whole, layer)", name); err == nil || err.Error() != want {
			t.Errorf("ParseMode(%q) error = %v, want %q", name, err, want)
		}
	}
}

func TestRunLayerBasics(t *testing.T) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("c", 56, 3, 64, 64, 1)
	r, err := RunLayer(acc, l, LayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeSec <= 0 || r.ExecSec <= 0 || r.TotalEnergy <= 0 {
		t.Fatalf("non-positive results: %+v", r)
	}
	if r.ExecSec < r.ComputeSec {
		t.Error("exec time cannot be below compute time")
	}
	if r.CommSec < 0 {
		t.Error("negative communication time")
	}
	if r.TotalEnergy != r.ComputeEnergy+r.NetworkEnergy {
		t.Error("energy components do not sum")
	}
	// Layer-by-layer DRAM traffic covers weights + ifmaps + ofmaps.
	want := l.WeightCount() + l.IfmapCount() + l.OfmapCount()
	if r.DRAMBytes != want {
		t.Errorf("DRAM bytes = %d, want %d", r.DRAMBytes, want)
	}
}

func TestWholeInferenceReducesDRAM(t *testing.T) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("c", 56, 3, 64, 64, 1) // ifmap 200 kB fits the 2 MB GB
	lbl, err := RunLayer(acc, l, LayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := RunLayer(acc, l, WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	if whole.DRAMBytes >= lbl.DRAMBytes {
		t.Errorf("GB reuse should cut DRAM traffic: %d vs %d", whole.DRAMBytes, lbl.DRAMBytes)
	}
	if whole.DRAMBytes != l.WeightCount() {
		t.Errorf("whole-inference DRAM = %d, want weights only %d", whole.DRAMBytes, l.WeightCount())
	}
}

func TestRunAggregatesRepeats(t *testing.T) {
	acc := SPACXAccel()
	m := dnn.Model{Name: "two", Layers: []dnn.Layer{
		dnn.NewSameConv("a", 28, 3, 64, 64, 1).Times(2),
	}}
	r, err := Run(acc, m, LayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := RunLayer(acc, m.Layers[0], LayerByLayer)
	if diff := r.ExecSec - 2*single.ExecSec; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("repeat aggregation wrong: %v vs 2*%v", r.ExecSec, single.ExecSec)
	}
}

// The headline qualitative results (Figure 15): SPACX < POPSTAR < Simba in
// both whole-inference execution time and energy, for every benchmark.
func TestPaperOrderingOverall(t *testing.T) {
	for _, m := range dnn.Benchmarks() {
		simba, err := Run(SimbaAccel(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := Run(POPSTARAccel(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := Run(SPACXAccel(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		if !(sx.ExecSec < pop.ExecSec && pop.ExecSec < simba.ExecSec) {
			t.Errorf("%s exec ordering violated: SPACX %v, POPSTAR %v, Simba %v",
				m.Name, sx.ExecSec, pop.ExecSec, simba.ExecSec)
		}
		if !(sx.TotalEnergy < pop.TotalEnergy && pop.TotalEnergy < simba.TotalEnergy) {
			t.Errorf("%s energy ordering violated: SPACX %v, POPSTAR %v, Simba %v",
				m.Name, sx.TotalEnergy, pop.TotalEnergy, simba.TotalEnergy)
		}
		// Shape bands: the paper reports SPACX at -78% exec / -75% energy
		// vs Simba; require at least a strong majority of that effect and
		// not an absurd overshoot.
		execRatio := sx.ExecSec / simba.ExecSec
		if execRatio > 0.45 || execRatio < 0.02 {
			t.Errorf("%s SPACX/Simba exec ratio = %v, outside [0.02, 0.45]", m.Name, execRatio)
		}
		energyRatio := sx.TotalEnergy / simba.TotalEnergy
		if energyRatio > 0.85 || energyRatio < 0.05 {
			t.Errorf("%s SPACX/Simba energy ratio = %v, outside [0.05, 0.85]", m.Name, energyRatio)
		}
	}
}

// Figure 17: on the SPACX architecture, WS is worst, OS(e/f) in between,
// the SPACX dataflow best — for every benchmark.
func TestPaperOrderingDataflows(t *testing.T) {
	for _, m := range dnn.Benchmarks() {
		ws, err := Run(SPACXArchWithDataflow(dataflow.WS{}), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		osef, err := Run(SPACXArchWithDataflow(dataflow.OSEF{}), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := Run(SPACXAccel(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		if !(sx.ExecSec < osef.ExecSec && osef.ExecSec < ws.ExecSec) {
			t.Errorf("%s dataflow exec ordering violated: SPACX %v, OS(e/f) %v, WS %v",
				m.Name, sx.ExecSec, osef.ExecSec, ws.ExecSec)
		}
		if !(sx.TotalEnergy < osef.TotalEnergy && osef.TotalEnergy < ws.TotalEnergy) {
			t.Errorf("%s dataflow energy ordering violated: SPACX %v, OS(e/f) %v, WS %v",
				m.Name, sx.TotalEnergy, osef.TotalEnergy, ws.TotalEnergy)
		}
	}
}

// Figure 18: disabling bandwidth allocation increases execution time
// (paper: +14% on average).
func TestPaperBandwidthAllocation(t *testing.T) {
	var with, without float64
	for _, m := range dnn.Benchmarks() {
		on, err := Run(SPACXAccel(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		off, err := Run(SPACXAccelNoBA(), m, WholeInference)
		if err != nil {
			t.Fatal(err)
		}
		if off.ExecSec < on.ExecSec {
			t.Errorf("%s: disabling BA should not speed things up", m.Name)
		}
		with += on.ExecSec / on.ExecSec
		without += off.ExecSec / on.ExecSec
	}
	avgIncrease := without/4 - 1
	if avgIncrease < 0.02 || avgIncrease > 0.5 {
		t.Errorf("average exec increase without BA = %.1f%%, want a material effect (paper: 14%%)",
			100*avgIncrease)
	}
	_ = with
}

// Figure 22 observation 1: Simba's execution time *increases* with chiplet
// count (electrical interconnects offset the scaling benefit), while SPACX's
// decreases.
func TestPaperScalability(t *testing.T) {
	res := dnn.ResNet50()
	simba16, _ := Run(SimbaAccelSized(16, 32), res, WholeInference)
	simba64, _ := Run(SimbaAccelSized(64, 32), res, WholeInference)
	if simba64.ExecSec <= simba16.ExecSec {
		t.Errorf("Simba should slow down with more chiplets: M=16 %v, M=64 %v",
			simba16.ExecSec, simba64.ExecSec)
	}
	sx16acc, err := SPACXAccelCustom(16, 32, 8, 16, photonic.Moderate(), true)
	if err != nil {
		t.Fatal(err)
	}
	sx64acc, err := SPACXAccelCustom(64, 32, 8, 16, photonic.Moderate(), true)
	if err != nil {
		t.Fatal(err)
	}
	sx16, _ := Run(sx16acc, res, WholeInference)
	sx64, _ := Run(sx64acc, res, WholeInference)
	if sx64.ExecSec >= sx16.ExecSec {
		t.Errorf("SPACX should speed up with more chiplets: M=16 %v, M=64 %v",
			sx16.ExecSec, sx64.ExecSec)
	}
}

// Figure 21(b) shape: O/E dominates the SPACX network energy (broadcast
// receivers), E/O is the smallest share, and heating and laser are
// intermediate.
func TestPaperNetworkEnergyBreakdown(t *testing.T) {
	r, err := Run(SPACXAccel(), dnn.ResNet50(), WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	eo, oe := r.NetDynamic.EO, r.NetDynamic.OE
	heat, laser := r.NetStaticJ.Heating, r.NetStaticJ.Laser
	if !(oe > heat && oe > laser && oe > eo) {
		t.Errorf("O/E should dominate: EO=%v OE=%v heat=%v laser=%v", eo, oe, heat, laser)
	}
	if !(eo < heat && eo < laser) {
		t.Errorf("E/O should be the smallest share: EO=%v heat=%v laser=%v", eo, heat, laser)
	}
	// Absolute magnitude: the paper reports 23.9 mJ for the SPACX network
	// on a ResNet-50 pass (moderate parameters); require the same order of
	// magnitude.
	netJ := r.NetworkEnergy
	if netJ < 2e-3 || netJ > 250e-3 {
		t.Errorf("SPACX ResNet-50 network energy = %v J, want same order as 23.9 mJ", netJ)
	}
}

// Aggressive photonic parameters must reduce SPACX energy (Figure 21a).
func TestAggressiveParamsReduceEnergy(t *testing.T) {
	mod, err := SPACXAccelCustom(32, 32, 8, 16, photonic.Moderate(), true)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := SPACXAccelCustom(32, 32, 8, 16, photonic.Aggressive(), true)
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := Run(mod, dnn.ResNet50(), WholeInference)
	ra, _ := Run(agg, dnn.ResNet50(), WholeInference)
	if ra.NetworkEnergy >= rm.NetworkEnergy {
		t.Errorf("aggressive params should cut network energy: %v vs %v",
			ra.NetworkEnergy, rm.NetworkEnergy)
	}
}

func TestPresetsValid(t *testing.T) {
	for _, acc := range EvalAccelerators() {
		if err := acc.Arch.Validate(); err != nil {
			t.Errorf("%s: %v", acc.Name(), err)
		}
	}
	if SPACXAccel().Name() != "SPACX" || SimbaAccel().Name() != "Simba" ||
		POPSTARAccel().Name() != "POPSTAR" {
		t.Error("unexpected preset names")
	}
	if _, err := SPACXAccelCustom(32, 32, 7, 16, photonic.Moderate(), true); err == nil {
		t.Error("invalid granularity should fail")
	}
}

// Property fuzz: random layers through all three accelerators must satisfy
// the simulator invariants.
func TestSimInvariantsFuzz(t *testing.T) {
	accs := EvalAccelerators()
	f := func(h, r, c, k, s, b uint8) bool {
		stride := int(s%2) + 1
		layer := dnn.NewSameConv("fz", int(h%96)+2, 2*int(r%2)+1, int(c)+1, int(k)+1, stride)
		layer = layer.WithBatch(int(b%4) + 1)
		if layer.Validate() != nil {
			return true
		}
		for _, acc := range accs {
			for _, mode := range []Mode{LayerByLayer, WholeInference} {
				res, err := RunLayer(acc, layer, mode)
				if err != nil {
					return false
				}
				if res.ExecSec < res.ComputeSec || res.ComputeSec <= 0 {
					return false
				}
				if res.TotalEnergy <= 0 || res.NetworkEnergy < 0 || res.ComputeEnergy <= 0 {
					return false
				}
				if res.DRAMBytes < 0 {
					return false
				}
				for _, fl := range res.Profile.Flows {
					if fl.Validate() != nil {
						return false
					}
				}
				// Capacity covers the work.
				cap := res.Profile.VectorSteps * int64(res.Profile.ActivePEs) *
					int64(acc.Arch.VectorWidth)
				if cap < layer.MACs() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
