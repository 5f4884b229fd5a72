// Package cli is the batch-run harness spacx-report and spacx-sweep share:
// the observability flags both commands take, their validation, and the
// lifecycle around one run of the experiment engine — ledger pruning,
// signal cancellation, profiles, the live observability server, the
// progress ticker, and the metrics/ledger flush afterwards. Each command
// keeps only its own flags, their validation, and the body that renders
// its output.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spacx/internal/exp"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/ledger"
	"spacx/internal/obs/server"
)

// Flags are the parallelism and observability flags of a batch run.
type Flags struct {
	Jobs int

	Metrics    string
	CPUProfile string
	MemProfile string
	Verbose    bool

	HTTPAddr   string
	HTTPLinger time.Duration
	LedgerPath string
	LedgerKeep int
	Progress   bool
	Regress    float64
}

// Register defines the flags on fs with their defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "j", runtime.NumCPU(), "number of parallel simulation workers")
	fs.StringVar(&f.Metrics, "metrics", "", "write a metrics snapshot to this path (Prometheus text format; .json extension switches to JSON)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this path on exit")
	fs.BoolVar(&f.Verbose, "v", false, "log structured per-point progress to stderr")
	fs.StringVar(&f.HTTPAddr, "http", "", "serve live observability endpoints on this address (e.g. 127.0.0.1:9090)")
	fs.DurationVar(&f.HTTPLinger, "http-linger", 2*time.Second, "keep the -http server up this long after the run for a final scrape")
	fs.StringVar(&f.LedgerPath, "ledger", "", "append a JSON run record to this file (e.g. runs.jsonl)")
	fs.IntVar(&f.LedgerKeep, "ledger-keep", 0, "on startup, prune the -ledger file to its newest N records, dropping schema-mismatched lines (0 disables)")
	fs.BoolVar(&f.Progress, "progress", false, "print a live progress line to stderr every second")
	fs.Float64Var(&f.Regress, "regress", 0, "report drivers slower than this ratio vs the previous -ledger record (0 disables)")
}

// Validate rejects out-of-range or inconsistent flags before any work
// starts.
func (f Flags) Validate() error {
	if f.Jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", f.Jobs)
	}
	if f.HTTPLinger < 0 {
		return fmt.Errorf("-http-linger must be >= 0, got %v", f.HTTPLinger)
	}
	if f.Regress < 0 {
		return fmt.Errorf("-regress must be >= 0, got %v", f.Regress)
	}
	if f.Regress > 0 && f.LedgerPath == "" {
		return fmt.Errorf("-regress needs -ledger to compare against")
	}
	if f.LedgerKeep < 0 {
		return fmt.Errorf("-ledger-keep must be >= 0, got %d", f.LedgerKeep)
	}
	if f.LedgerKeep > 0 && f.LedgerPath == "" {
		return fmt.Errorf("-ledger-keep needs -ledger to prune")
	}
	return nil
}

// Run validates f and runs body inside the observability lifecycle. cmd
// names the command in stderr lines and the ledger record; target is the
// record's target (the artifact or sweep run).
//
// SIGINT/SIGTERM cancels the run through exp's context: in-flight points
// are abandoned at the engine's next claim, and when body returns
// context.Canceled whatever was collected still flushes to -metrics and
// -ledger before Run returns that error. Any other body error returns at
// once.
func Run(cmd, target string, f Flags, body func() error) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.LedgerKeep > 0 {
		kept, dropped, err := ledger.Prune(f.LedgerPath, ledger.SchemaVersion, f.LedgerKeep)
		if err != nil {
			return fmt.Errorf("prune ledger: %w", err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "%s: ledger pruned to %d records (%d dropped)\n", cmd, kept, dropped)
		}
	}
	exp.SetParallelism(f.Jobs)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	exp.SetContext(ctx)
	defer exp.SetContext(nil)

	stopProfiles, err := obs.StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, cmd+":", err)
		}
	}()

	var reg *obs.Registry
	if f.Metrics != "" || f.Verbose || f.HTTPAddr != "" || f.LedgerPath != "" {
		reg = obs.NewRegistry(obs.NewLogger(os.Stderr, f.Verbose))
		exp.SetRecorder(reg)
		defer exp.SetRecorder(nil)
	}
	var prog *engine.Progress
	if f.HTTPAddr != "" || f.LedgerPath != "" || f.Progress {
		prog = engine.NewProgress()
		exp.SetProgress(prog)
		defer exp.SetProgress(nil)
	}

	var srv *server.Server
	if f.HTTPAddr != "" {
		srv, err = server.Start(f.HTTPAddr, server.Options{
			Registry: reg,
			Progress: prog,
			Runs: func() ([]ledger.Record, error) {
				if f.LedgerPath == "" {
					return nil, nil
				}
				return ledger.Read(f.LedgerPath)
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/ (metrics, progress, runs, pprof)\n", srv.Addr())
	}
	var sampler *ledger.Sampler
	if f.LedgerPath != "" {
		sampler = ledger.StartSampler(0)
	}
	stopTicker := func() {}
	if f.Progress {
		stopTicker = prog.StartTicker(os.Stderr, time.Second)
	}

	bodyErr := body()
	stopTicker()
	interrupted := errors.Is(bodyErr, context.Canceled)
	if bodyErr != nil && !interrupted {
		return bodyErr
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, cmd+": interrupted; flushing metrics and ledger")
	}

	if f.Verbose {
		reg.LogSummary()
	}
	if f.Metrics != "" {
		if err := reg.WriteFile(f.Metrics); err != nil {
			return err
		}
		if f.Metrics != "-" {
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", f.Metrics)
		}
	}
	if f.LedgerPath != "" {
		rec := ledger.New(cmd, target, f.Jobs)
		rec.FillProgress(prog.Status())
		rec.FillSnapshot(reg.Snapshot())
		rec.PeakGoroutines, rec.PeakHeapBytes = sampler.Stop()
		if f.Regress > 0 {
			prev, ok, err := ledger.Last(f.LedgerPath)
			if err != nil {
				return err
			}
			if ok {
				fmt.Fprint(os.Stderr, ledger.Compare(prev, rec, f.Regress).String())
			}
		}
		if err := ledger.Append(f.LedgerPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "run recorded to %s\n", f.LedgerPath)
	}
	if srv != nil {
		// Keep serving the completed /progress, /runs, and final metrics
		// until a scraper collects them or the linger window closes.
		if err := srv.DrainAndShutdown(f.HTTPLinger, 200*time.Millisecond); err != nil {
			fmt.Fprintln(os.Stderr, cmd+": observability server:", err)
		}
	}
	return bodyErr
}
