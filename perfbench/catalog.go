package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"spacx/internal/dnn"
	"spacx/internal/serve"
	"spacx/internal/sim"
)

// The servable catalog, in the order /v1/models and /v1/accelerators list
// it, built from the same public constructors the server uses.
var (
	catalogModels = []struct {
		name  string
		build func() dnn.Model
	}{
		{"resnet50", dnn.ResNet50},
		{"vgg16", dnn.VGG16},
		{"densenet201", dnn.DenseNet201},
		{"efficientnetb7", dnn.EfficientNetB7},
		{"alexnet", dnn.AlexNet},
		{"mobilenetv2", dnn.MobileNetV2},
	}
	catalogAccels = []struct {
		name  string
		build func() sim.Accelerator
		lossy bool // reports the SPACX worst-case optical loss
	}{
		{"spacx", sim.SPACXAccel, true},
		{"spacx-noba", sim.SPACXAccelNoBA, true},
		{"simba", sim.SimbaAccel, false},
		{"popstar", sim.POPSTARAccel, false},
	}
	catalogModes = []string{"whole", "layer"}
)

// maxBatch is spacx-serve's default -max-request-batch.
const maxBatch = 256

// catalogSize is the number of distinct /v1/simulate keys.
var catalogSize = len(catalogModels) * len(catalogAccels) * len(catalogModes) * maxBatch

// key is one /v1/simulate query, as catalog indices.
type key struct {
	model, accel, mode, batch int // batch is 1-based
}

// keyAt decodes a catalog index into a key.
func keyAt(i int) key {
	b := i % maxBatch
	i /= maxBatch
	mo := i % len(catalogModes)
	i /= len(catalogModes)
	a := i % len(catalogAccels)
	i /= len(catalogAccels)
	return key{model: i, accel: a, mode: mo, batch: b + 1}
}

func (k key) String() string {
	return fmt.Sprintf("%s/%s/%s/%d", catalogModels[k.model].name, catalogAccels[k.accel].name,
		catalogModes[k.mode], k.batch)
}

// body is the /v1/simulate request body for k.
func (k key) body() []byte {
	return []byte(`{"model":"` + catalogModels[k.model].name + `","accel":"` + catalogAccels[k.accel].name +
		`","mode":"` + catalogModes[k.mode] + `","batch":` + strconv.Itoa(k.batch) + `}`)
}

// request is the sim-layer request k resolves to.
func (k key) request() sim.Request {
	mode := sim.WholeInference
	if catalogModes[k.mode] == "layer" {
		mode = sim.LayerByLayer
	}
	return sim.Request{
		Accel: catalogAccels[k.accel].build(),
		Model: catalogModels[k.model].build(),
		Mode:  mode,
		Batch: k.batch,
	}
}

// permutation is a seeded shuffle of the whole catalog.
func permutation(seed int64) []key {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(catalogSize)
	out := make([]key, len(idx))
	for i, j := range idx {
		out[i] = keyAt(j)
	}
	return out
}

// keyTypes is the number of model, accelerator and mode combinations.
var keyTypes = len(catalogModels) * len(catalogAccels) * len(catalogModes)

// missSequences splits the catalog into serve-miss's two key sequences,
// the open loop's holding openOps keys. The open loop's comes in blocks of
// 48 keys, one for each model, accelerator and mode in a seeded order,
// each with a seeded batch size, so every seed offers the same mix and its
// median latency does not depend on which models the seed happened to
// draw. The closed loop's is the rest of the catalog, shuffled. No key is
// in both.
func missSequences(seed int64, openOps int) (closed, open []key, err error) {
	blocks := (openOps + keyTypes - 1) / keyTypes
	if blocks >= maxBatch {
		return nil, nil, fmt.Errorf("serve-miss: %d open-loop requests leave no catalog key for the closed loop", openOps)
	}
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]int, keyTypes)
	for t := range batches {
		batches[t] = rng.Perm(maxBatch)
	}
	used := map[key]bool{}
	for j := 0; j < blocks; j++ {
		for _, t := range rng.Perm(keyTypes) {
			k := keyAt(t*maxBatch + batches[t][j])
			open = append(open, k)
			used[k] = true
		}
	}
	for _, k := range permutation(rng.Int63()) {
		if !used[k] {
			closed = append(closed, k)
		}
	}
	return closed, open, nil
}

// sweepGrid is one /v1/sweep request: two models, every accelerator, both
// modes and two batch sizes.
type sweepGrid struct {
	models  [2]int
	batches [2]int
}

// gridPoints is the number of points in every sweepGrid.
var gridPoints = 2 * len(catalogAccels) * len(catalogModes) * 2

// matchings lists the 15 ways to pair up six models.
var matchings = func() [][][2]int {
	var out [][][2]int
	var rec func(left []int, acc [][2]int)
	rec = func(left []int, acc [][2]int) {
		if len(left) == 0 {
			out = append(out, append([][2]int(nil), acc...))
			return
		}
		for i := 1; i < len(left); i++ {
			rest := append(append([]int(nil), left[1:i]...), left[i+1:]...)
			rec(rest, append(acc, [2]int{left[0], left[i]}))
		}
	}
	rec([]int{0, 1, 2, 3, 4, 5}, nil)
	return out
}()

// sweepCycle is the number of grids in one open-loop cycle of serve-sweep:
// 15 batch pairs, each carrying one of the 15 pairings of six models.
var sweepCycle = len(matchings) * len(catalogModels) / 2

// sweepSequences splits the catalog into serve-sweep's two grid sequences,
// the open loop's holding at least openOps grids. The batch sizes 1..256
// are paired at random, and each batch pair carries the six models paired
// up, three grids, so no key appears in two grids. For the open loop, each
// cycle of 15 batch pairs carries the 15 distinct pairings once, which
// puts every model pair in it three times; the cycle's 45 grids are
// ordered in three blocks of 15 that each hold every model pair once, so
// every seed offers the same mix. The closed loop's batch pairs carry
// random pairings, and its grids come in a seeded order.
func sweepSequences(seed int64, openOps int) (closed, open []sweepGrid, err error) {
	cycles := (openOps + sweepCycle - 1) / sweepCycle
	if cycles*len(matchings) >= maxBatch/2 {
		return nil, nil, fmt.Errorf("serve-sweep: %d open-loop sweeps leave no batch pair for the closed loop", openOps)
	}
	rng := rand.New(rand.NewSource(seed))
	bp := rng.Perm(maxBatch)
	pair := func(j int) [2]int { return [2]int{bp[2*j] + 1, bp[2*j+1] + 1} }
	j := 0
	for c := 0; c < cycles; c++ {
		var blocks [3][]sweepGrid
		seen := map[[2]int]int{}
		for _, m := range rng.Perm(len(matchings)) {
			for _, mp := range matchings[m] {
				g := sweepGrid{models: mp, batches: pair(j)}
				blocks[seen[mp]] = append(blocks[seen[mp]], g)
				seen[mp]++
			}
			j++
		}
		for _, b := range blocks {
			rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
			open = append(open, b...)
		}
	}
	for ; 2*j+1 < len(bp); j++ {
		mp := rng.Perm(len(catalogModels))
		for i := 0; i+1 < len(mp); i += 2 {
			closed = append(closed, sweepGrid{models: [2]int{mp[i], mp[i+1]}, batches: pair(j)})
		}
	}
	rng.Shuffle(len(closed), func(x, y int) { closed[x], closed[y] = closed[y], closed[x] })
	return closed, open, nil
}

// body is the /v1/sweep request body for g.
func (g sweepGrid) body() []byte {
	var b bytes.Buffer
	b.WriteString(`{"models":["` + catalogModels[g.models[0]].name + `","` + catalogModels[g.models[1]].name + `"],"accels":[`)
	for i, a := range catalogAccels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + a.name + `"`)
	}
	b.WriteString(`],"modes":["whole","layer"],"batches":[` + strconv.Itoa(g.batches[0]) + `,` +
		strconv.Itoa(g.batches[1]) + `]}`)
	return b.Bytes()
}

// keys lists g's points in the order the server answers them: models
// outermost, batches innermost.
func (g sweepGrid) keys() []key {
	out := make([]key, 0, gridPoints)
	for _, m := range g.models {
		for a := range catalogAccels {
			for mo := range catalogModes {
				for _, b := range g.batches {
					out = append(out, key{model: m, accel: a, mode: mo, batch: b})
				}
			}
		}
	}
	return out
}

// spacxLossDB is the worst-case optical loss the server reports for the
// SPACX accelerators.
var spacxLossDB = func() float64 {
	cfg, err := sim.SPACXAccelConfig()
	if err != nil {
		panic(err) // the default configuration is valid
	}
	return float64(cfg.CrossChannelBudget().Loss())
}()

// checkSimulate decodes one /v1/simulate body and compares it bit for bit
// with sim.Request.Run on the reference layer kernel. It returns "" when the
// answer is right.
func checkSimulate(k key, body []byte) string {
	var got serve.SimulateResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return fmt.Sprintf("%s: decode: %v", k, err)
	}
	res, err := k.request().Run(nil)
	if err != nil {
		return fmt.Sprintf("%s: reference run: %v", k, err)
	}
	var dram int64
	for _, lr := range res.Layers {
		dram += lr.DRAMBytes * int64(lr.Layer.Repeat)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Model != catalogModels[k.model].name || got.Accel != catalogAccels[k.accel].name ||
		got.Mode != catalogModes[k.mode] || got.Batch != k.batch:
		return fmt.Sprintf("%s: answered for %s/%s/%s/%d", k, got.Model, got.Accel, got.Mode, got.Batch)
	case got.Layers != len(res.Layers):
		return fmt.Sprintf("%s: layers %d, want %d", k, got.Layers, len(res.Layers))
	case got.DRAMBytes != dram:
		return fmt.Sprintf("%s: dram_bytes %d, want %d", k, got.DRAMBytes, dram)
	case !same(got.ExecSec, res.ExecSec) || !same(got.ComputeSec, res.ComputeSec) || !same(got.CommSec, res.CommSec):
		return fmt.Sprintf("%s: times (%v, %v, %v), want (%v, %v, %v)", k,
			got.ExecSec, got.ComputeSec, got.CommSec, res.ExecSec, res.ComputeSec, res.CommSec)
	case !same(got.TotalEnergyJ, res.TotalEnergy) || !same(got.ComputeEnergyJ, res.ComputeEnergy) ||
		!same(got.NetworkEnergyJ, res.NetworkEnergy):
		return fmt.Sprintf("%s: energies (%v, %v, %v), want (%v, %v, %v)", k,
			got.TotalEnergyJ, got.ComputeEnergyJ, got.NetworkEnergyJ,
			res.TotalEnergy, res.ComputeEnergy, res.NetworkEnergy)
	}
	lossy := catalogAccels[k.accel].lossy
	if (got.WorstCaseLossDB != nil) != lossy || lossy && !same(*got.WorstCaseLossDB, spacxLossDB) {
		return fmt.Sprintf("%s: worst_case_loss_db %v, want %v (reported: %v)", k,
			got.WorstCaseLossDB, spacxLossDB, lossy)
	}
	return ""
}
