package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/sim"
)

// SimulateRequest is the JSON body of POST /v1/simulate.
type SimulateRequest struct {
	// Model is a catalog model name (see /v1/models), e.g. "resnet50".
	Model string `json:"model"`
	// Accel is a catalog accelerator name (see /v1/accelerators):
	// spacx, spacx-noba, simba, popstar.
	Accel string `json:"accel"`
	// Mode is the data-residency mode: "whole" (default) or "layer".
	Mode string `json:"mode,omitempty"`
	// Batch is the number of samples processed together (default 1).
	Batch int `json:"batch,omitempty"`
	// LossBudgetDB optionally rejects the query (422) when the
	// accelerator's worst-case optical insertion loss exceeds this budget.
	// Zero disables the check; it only applies to accelerators that report
	// a loss figure.
	LossBudgetDB float64 `json:"loss_budget_db,omitempty"`
}

// SimulateResponse is the JSON body answering /v1/simulate. Identical
// queries always produce byte-identical bodies: the encoder is
// deterministic and cached bodies are returned verbatim.
type SimulateResponse struct {
	Model string `json:"model"`
	Accel string `json:"accel"`
	Mode  string `json:"mode"`
	Batch int    `json:"batch"`

	Layers     int     `json:"layers"`
	DRAMBytes  int64   `json:"dram_bytes"`
	ExecSec    float64 `json:"exec_sec"`
	ComputeSec float64 `json:"compute_sec"`
	CommSec    float64 `json:"comm_sec"`

	TotalEnergyJ   float64 `json:"total_energy_j"`
	ComputeEnergyJ float64 `json:"compute_energy_j"`
	NetworkEnergyJ float64 `json:"network_energy_j"`

	// WorstCaseLossDB is the accelerator's worst-case optical path loss;
	// omitted for accelerators without a photonic loss model.
	WorstCaseLossDB *float64 `json:"worst_case_loss_db,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Catalog entries are resolved once, lazily on first use (sync.OnceValue),
// so startup builds nothing and a request builds nothing. What they hand out
// is shared by every request and must be treated as read-only;
// sim.Request applies a batch to a copy of the model's layers.

// modelEntry is one catalog model.
type modelEntry struct {
	Name      string // request alias
	Canonical string // paper name
	model     func() dnn.Model
}

// modelCatalog lists every servable model, evaluation benchmarks first.
var modelCatalog = []modelEntry{
	{Name: "resnet50", Canonical: "ResNet-50", model: sync.OnceValue(dnn.ResNet50)},
	{Name: "vgg16", Canonical: "VGG-16", model: sync.OnceValue(dnn.VGG16)},
	{Name: "densenet201", Canonical: "DenseNet-201", model: sync.OnceValue(dnn.DenseNet201)},
	{Name: "efficientnetb7", Canonical: "EfficientNet-B7", model: sync.OnceValue(dnn.EfficientNetB7)},
	{Name: "alexnet", Canonical: "AlexNet", model: sync.OnceValue(dnn.AlexNet)},
	{Name: "mobilenetv2", Canonical: "MobileNetV2", model: sync.OnceValue(dnn.MobileNetV2)},
}

// accelEntry is one catalog accelerator.
type accelEntry struct {
	Name        string
	Description string
	resolve     func() resolvedAccel
}

// resolvedAccel is a built catalog accelerator with everything a request
// derives from it.
type resolvedAccel struct {
	acc sim.Accelerator
	fp  string // network fingerprint; "" when the network has none
	// lossDB is the worst-case optical insertion loss; hasLoss is false for
	// accelerators without a photonic loss model.
	lossDB  float64
	hasLoss bool
}

// newAccelEntry builds a catalog entry resolved on first use from the
// accelerator constructor and its loss model.
func newAccelEntry(name, desc string, build func() sim.Accelerator, loss func() (float64, bool)) accelEntry {
	return accelEntry{Name: name, Description: desc, resolve: sync.OnceValue(func() resolvedAccel {
		r := resolvedAccel{acc: build()}
		r.fp, _ = network.FingerprintOf(r.acc.Arch.Net)
		r.lossDB, r.hasLoss = loss()
		return r
	})}
}

// spacxWorstCaseLoss is the worst-case cross-chiplet channel loss of the
// default SPACX network (Equation 2's Closs term).
func spacxWorstCaseLoss() (float64, bool) {
	cfg, err := sim.SPACXAccelConfig()
	if err != nil {
		return 0, false
	}
	return float64(cfg.CrossChannelBudget().Loss()), true
}

func noLoss() (float64, bool) { return 0, false }

// accelCatalog lists every servable accelerator, paper order.
var accelCatalog = []accelEntry{
	newAccelEntry("spacx",
		"SPACX: hierarchical photonic network, broadcast OS dataflow, bandwidth allocation on",
		sim.SPACXAccel, spacxWorstCaseLoss),
	newAccelEntry("spacx-noba",
		"SPACX with the flexible bandwidth-allocation scheme disabled",
		sim.SPACXAccelNoBA, spacxWorstCaseLoss),
	newAccelEntry("simba",
		"Simba: all-electrical meshes, weight-stationary dataflow",
		sim.SimbaAccel, noLoss),
	newAccelEntry("popstar",
		"POPSTAR: photonic package crossbar, electrical chiplet meshes, WS dataflow",
		sim.POPSTARAccel, noLoss),
}

func modelByName(name string) (modelEntry, bool) {
	for _, e := range modelCatalog {
		if e.Name == name {
			return e, true
		}
	}
	return modelEntry{}, false
}

func accelByName(name string) (accelEntry, bool) {
	for _, e := range accelCatalog {
		if e.Name == name {
			return e, true
		}
	}
	return accelEntry{}, false
}

// decodeSimulateRequest parses and validates a /v1/simulate body without
// touching any simulator state. It is strict — unknown fields, trailing
// data, out-of-range values, and unknown catalog names are all errors — and
// must never panic on arbitrary input (see FuzzSimulateRequest). The
// returned request is normalized: empty mode becomes "whole", zero batch
// becomes 1.
func decodeSimulateRequest(data []byte, maxBatch int) (SimulateRequest, error) {
	var req SimulateRequest
	if err := decodeStrict(data, &req); err != nil {
		return SimulateRequest{}, err
	}
	return validateSimulateRequest(req, maxBatch)
}

// decodeStrict decodes one JSON object from data into v, rejecting unknown
// fields and trailing data. The simulate, sweep (sync and async), and
// thermal bodies all decode through it.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// validateSimulateRequest applies decodeSimulateRequest's field checks to an
// already decoded request and returns it normalized. /v1/sweep validates
// each grid point through it.
func validateSimulateRequest(req SimulateRequest, maxBatch int) (SimulateRequest, error) {
	if req.Model == "" {
		return SimulateRequest{}, fmt.Errorf("missing required field %q", "model")
	}
	if _, ok := modelByName(req.Model); !ok {
		return SimulateRequest{}, fmt.Errorf("unknown model %q (see /v1/models)", req.Model)
	}
	if req.Accel == "" {
		return SimulateRequest{}, fmt.Errorf("missing required field %q", "accel")
	}
	if _, ok := accelByName(req.Accel); !ok {
		return SimulateRequest{}, fmt.Errorf("unknown accelerator %q (see /v1/accelerators)", req.Accel)
	}
	if req.Mode == "" {
		req.Mode = "whole"
	}
	if _, err := sim.ParseMode(req.Mode); err != nil {
		return SimulateRequest{}, err
	}
	if req.Batch == 0 {
		req.Batch = 1
	}
	if req.Batch < 1 || req.Batch > maxBatch {
		return SimulateRequest{}, fmt.Errorf("batch must be in [1, %d], got %d", maxBatch, req.Batch)
	}
	if req.LossBudgetDB < 0 {
		return SimulateRequest{}, fmt.Errorf("loss_budget_db must be >= 0, got %g", req.LossBudgetDB)
	}
	return req, nil
}

// query is one admitted simulation lookup: the normalized wire request, the
// sim-layer request it resolves to, the cache key, and the accelerator's
// loss figure.
type query struct {
	wire    SimulateRequest
	req     sim.Request
	key     string
	lossDB  float64
	hasLoss bool
}

// buildQuery resolves a decoded request against the catalogs and derives
// the cache key: network fingerprint × model × mode × batch. The
// fingerprint — not the accelerator name — keys the cache, so two names
// that build identical networks share entries and a config change can never
// serve stale results.
func buildQuery(req SimulateRequest) (query, error) {
	me, _ := modelByName(req.Model)
	ae, _ := accelByName(req.Accel)
	ra := ae.resolve()
	if ra.fp == "" {
		// Catalog networks all fingerprint; a non-fingerprinting one would
		// defeat result caching, so refuse to guess.
		return query{}, fmt.Errorf("accelerator %q has no network fingerprint", req.Accel)
	}
	mode, err := sim.ParseMode(req.Mode)
	if err != nil {
		return query{}, err
	}
	q := query{
		wire: req,
		req: sim.Request{
			Accel: ra.acc,
			Model: me.model(),
			Mode:  mode,
			Batch: req.Batch,
		},
		key:     ra.fp + "|" + ae.Name + "|" + me.Name + "|" + req.Mode + "|" + strconv.Itoa(req.Batch),
		lossDB:  ra.lossDB,
		hasLoss: ra.hasLoss,
	}
	return q, nil
}

// checkLossBudget enforces the request's optional loss budget against the
// accelerator's worst-case optical path loss.
func (q query) checkLossBudget() error {
	if q.wire.LossBudgetDB <= 0 || !q.hasLoss {
		return nil
	}
	if q.lossDB > q.wire.LossBudgetDB {
		return fmt.Errorf("worst-case optical loss %.2f dB exceeds loss budget %.2f dB",
			q.lossDB, q.wire.LossBudgetDB)
	}
	return nil
}

// encodeSimulateResponse renders the deterministic response body for one
// completed simulation.
func encodeSimulateResponse(q query, res sim.ModelResult) ([]byte, error) {
	resp := SimulateResponse{
		Model: q.wire.Model,
		Accel: q.wire.Accel,
		Mode:  q.wire.Mode,
		Batch: q.wire.Batch,

		Layers:     len(res.Layers),
		ExecSec:    res.ExecSec,
		ComputeSec: res.ComputeSec,
		CommSec:    res.CommSec,

		TotalEnergyJ:   res.TotalEnergy,
		ComputeEnergyJ: res.ComputeEnergy,
		NetworkEnergyJ: res.NetworkEnergy,
	}
	for _, lr := range res.Layers {
		resp.DRAMBytes += lr.DRAMBytes * int64(lr.Layer.Repeat)
	}
	if q.hasLoss {
		loss := q.lossDB
		resp.WorstCaseLossDB = &loss
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("serve: encode response: %w", err)
	}
	return append(b, '\n'), nil
}
