// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the code of the checkout it is built from, checks
// every answer, and prints the workload's metrics as one JSON object on the
// last line of standard output.
//
// The serve-* workloads launch the real spacx-serve binary on a loopback
// port with its default flags and talk to it only over HTTP; report-cold
// calls the internal/exp drivers in-process. With -trace 0 the run records
// nothing beyond its own end-to-end timings; with -trace 1 it repeats the
// workload with client spans, server /metrics deltas, a CPU profile and an
// in-process replay, and prints the per-layer metrics instead. README.md in
// this directory documents the workloads and every metric.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clients is the number of client goroutines and connections the load
// generator uses: the machine's CPU count, so one process drives the server
// without oversubscribing the host it shares.
var clients = runtime.NumCPU()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: goldens are read from here
	serve    string // spacx-serve binary
	out      string // directory the traced run's spans are written to
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload returns: its op accounting, the answer-check
// outcome, and the metrics for the selected mode.
type run struct {
	attempted, failed int64
	mismatches        []string
	metrics           map[string]metric
	notes             []string // human-readable record lines
	trace             []span   // the traced run's benchmark-side spans
}

func (r *run) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a failed answer check, keeping the first few for the
// record.
func (r *run) mismatch(format string, args ...any) {
	if len(r.mismatches) < 1000 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*run, error){
	"serve-hit":   runServe,
	"serve-miss":  runServe,
	"serve-sweep": runServe,
	"report-cold": runReport,
}

func main() {
	var cfg config
	var secs, trace int
	var probe bool
	flag.StringVar(&cfg.workload, "workload", "", "serve-hit, serve-miss, serve-sweep or report-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 24, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.serve, "serve", "", "spacx-serve binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/spans", "directory for the traced run's span files")
	flag.BoolVar(&probe, "probe", false, "print ready and exit (report-cold set-up probe)")
	flag.Parse()
	if probe {
		fmt.Println("ready")
		return
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := execute(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs the workload, checks its metrics against BENCHMARK.json and
// prints the record.
func execute(cfg config) error {
	r, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	if err := finish(cfg, r); err != nil {
		return err
	}
	return emit(cfg, r)
}

func validate(cfg config, trace int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.seconds < time.Second || cfg.seconds > 60*time.Second {
		return fmt.Errorf("-seconds must be in [1, 60], got %v", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if strings.HasPrefix(cfg.workload, "serve-") && cfg.serve == "" {
		return fmt.Errorf("-serve is required for %s", cfg.workload)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "internal", "exp", "testdata")); err != nil {
		return fmt.Errorf("-root does not hold the repository: %w", err)
	}
	return nil
}

// emit prints the human-readable record and then the result line. A run
// whose answers did not check out prints correct=false and exits non-zero.
func emit(cfg config, r *run) error {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%v mode=%s clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, clients)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Printf("# %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, m := range r.mismatches {
		fmt.Println("# MISMATCH", m)
	}
	res := result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d answer checks failed", len(r.mismatches))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no ops attempted")
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder holds the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and the value at it (nearest rank). sorted must be ascending.
func tail(sorted []float64) (pct, value float64) {
	n := float64(len(sorted))
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			pct = p
		}
	}
	return pct, quantile(sorted, pct)
}

// quantile is the nearest-rank percentile p of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// upperQuartile is the nearest-rank 75th percentile of xs.
func upperQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 75)
}
