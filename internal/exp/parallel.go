package exp

import (
	"fmt"
	"runtime"

	"spacx/internal/dnn"
	"spacx/internal/exp/engine"
	"spacx/internal/sim"
)

// parallelism is the worker count every driver fans its sweep grid out
// with. Drivers enumerate their (model x layer x accelerator x design-point)
// grids up front, evaluate the independent points through engine.Map, and
// fold the index-addressed results sequentially — so any worker count,
// including 1, produces bit-identical rows.
var parallelism = runtime.GOMAXPROCS(0)

// SetParallelism installs the worker count used by every driver in this
// package (n <= 0 restores the default, runtime.GOMAXPROCS(0)). Like
// SetRecorder, it is not safe to call concurrently with a running driver;
// CLIs set it once at startup from their -j flag.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// Parallelism reports the current driver worker count.
func Parallelism() int { return parallelism }

// layerMemoMax bounds every layerMemo. Past it the memo is dropped
// wholesale and rebuilt, which keeps a long-running server's memory flat at
// the cost of occasional recomputation (/v1/thermal evaluates through
// analyticalMemo); a full report memoizes about 10k entries, so the bound
// never triggers there.
const layerMemoMax = 65536

// layerMemo memoizes a deterministic sim.LayerRunner on sim.LayerKey, so
// every (accelerator, layer, mode) point is evaluated once. The figure grids
// revisit such points many times (Fig 13 and Fig 15 share models, the
// adaptive study re-runs every layer on 16 granularities, Fig 16's load
// derivation replays whole models). Results are deterministic, so sharing
// them is invisible in the output. Cached LayerResults are shared shallowly
// — callers must not mutate them. A layerMemo is safe for concurrent use.
type layerMemo struct {
	run   sim.LayerRunner
	max   int
	cache engine.Cache[sim.LayerKey, sim.LayerResult]
}

// newLayerMemo memoizes run.
func newLayerMemo(run sim.LayerRunner) *layerMemo {
	return &layerMemo{run: run, max: layerMemoMax}
}

// Run is the memoized runner; its signature is sim.LayerRunner's.
// Accelerators whose network model has no fingerprint are evaluated
// directly (never cached).
func (m *layerMemo) Run(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerResult, error) {
	ak, ok := acc.Key()
	if !ok {
		return m.run(acc, l, mode)
	}
	if m.cache.Len() > m.max {
		m.cache.Reset()
	}
	return m.cache.Do(sim.LayerKey{Accel: ak, Layer: l, Mode: mode}, func() (sim.LayerResult, error) {
		return m.run(acc, l, mode)
	})
}

// Len reports how many layer evaluations are memoized.
func (m *layerMemo) Len() int { return m.cache.Len() }

// Reset drops every memoized evaluation.
func (m *layerMemo) Reset() { m.cache.Reset() }

// The process-wide memos every driver evaluates through: the analytical
// engine, and the epoch-pipelined detailed engine EngineAgreement pairs
// with it.
var (
	analyticalMemo = newLayerMemo(sim.RunLayer)
	detailedMemo   = newLayerMemo(sim.RunLayerDetailed)
)

// ResetCaches drops all memoized layer and packet-simulation evaluations.
// Tests use it to time cold sweeps and to prove parallel == sequential from
// a cold start.
func ResetCaches() {
	analyticalMemo.Reset()
	detailedMemo.Reset()
	packetCache.Reset()
}

// CacheSize reports how many layer evaluations are currently memoized.
func CacheSize() int { return analyticalMemo.Len() + detailedMemo.Len() }

// layerWrap optionally wraps the memoized layer evaluator every driver
// aggregates through — the seam the thermal co-simulation uses to derate
// communication, and the differential suite uses to prove the
// thermal-aware path is bit-identical to the static one when feedback is
// off. The wrap runs outside the cache, so cached results stay pristine.
var layerWrap func(sim.LayerRunner) sim.LayerRunner

// SetLayerWrap installs (or, with nil, removes) the layer-evaluator wrap.
// Like SetRecorder, it is not safe to call concurrently with a running
// driver.
func SetLayerWrap(w func(sim.LayerRunner) sim.LayerRunner) { layerWrap = w }

// runModelCached is sim.Run with every layer evaluation memoized; the
// aggregation goes through sim.RunVia, so results are bit-identical to
// sim.Run.
func runModelCached(acc sim.Accelerator, m dnn.Model, mode sim.Mode) (sim.ModelResult, error) {
	runner := sim.LayerRunner(analyticalMemo.Run)
	if layerWrap != nil {
		runner = layerWrap(runner)
	}
	return sim.RunVia(acc, m, mode, runner)
}

// runGrid evaluates every (model, accelerator) pair of a sweep across the
// worker pool and returns results indexed [model][accelerator]. The drivers'
// normalization folds then walk the grid in the original sequential order;
// sweep names the progress phase and metric labels the points land under.
func runGrid(sweep string, models []dnn.Model, accs []sim.Accelerator, mode sim.Mode) ([][]sim.ModelResult, error) {
	flat, err := mapPoints(sweep, len(models)*len(accs), func(i int) (sim.ModelResult, error) {
		m := models[i/len(accs)]
		acc := accs[i%len(accs)]
		r, err := runModelCached(acc, m, mode)
		if err != nil {
			return sim.ModelResult{}, fmt.Errorf("exp: %s on %s: %w", m.Name, acc.Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.ModelResult, len(models))
	for i := range out {
		out[i] = flat[i*len(accs) : (i+1)*len(accs)]
	}
	return out, nil
}
