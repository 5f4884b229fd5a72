// Command spacx-sweep runs the design-space sweeps: the broadcast
// granularity power surfaces of Figures 19/20 and the scalability study of
// Figure 22.
//
// Usage:
//
//	spacx-sweep -sweep power -params moderate
//	spacx-sweep -sweep power -params aggressive -m 64 -n 64
//	spacx-sweep -sweep scale -v -metrics /tmp/sweep.prom
//	spacx-sweep -sweep scale -j 1
//
// Parallelism: -j N sets the worker count for the experiment engine's fan-out
// over independent sweep points (default: all CPUs). Results are bit-for-bit
// identical at any worker count.
//
// Observability: -v logs a structured progress line per sweep point to
// stderr; -metrics writes per-point counters and duration histograms
// (Prometheus text format, JSON when the path ends in .json, or stdout when
// the path is "-"); -cpuprofile/-memprofile write runtime/pprof profiles.
//
// Live observability: -http addr serves /metrics, /progress, /runs,
// /healthz, and /debug/pprof/ during the sweep (lingering -http-linger for a
// final scrape); -progress prints a stderr progress ticker; -ledger path
// appends one JSON run record per invocation and -regress ratio compares it
// against the previous record.
package main

import (
	"flag"
	"fmt"
	"os"

	"spacx"
	"spacx/internal/buildinfo"
	"spacx/internal/cli"
	"spacx/internal/exp"
	"spacx/internal/report"
)

type options struct {
	cli.Flags

	sweep   string
	params  string
	m, n    int
	version bool
}

func main() {
	var o options
	flag.StringVar(&o.sweep, "sweep", "power", "sweep kind: power (Figs 19/20) or scale (Fig 22)")
	flag.StringVar(&o.params, "params", "moderate", "photonic parameters: moderate or aggressive")
	flag.IntVar(&o.m, "m", 32, "chiplet count for the power sweep")
	flag.IntVar(&o.n, "n", 32, "PEs per chiplet for the power sweep")
	o.Flags.Register(flag.CommandLine)
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-sweep:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Validate every enum flag before sweeping so a typo fails fast.
	if o.sweep != "power" && o.sweep != "scale" {
		return fmt.Errorf("unknown sweep %q (power, scale)", o.sweep)
	}
	var p spacx.PhotonicParams
	switch o.params {
	case "moderate":
		p = spacx.ModerateParams()
	case "aggressive":
		p = spacx.AggressiveParams()
	default:
		return fmt.Errorf("unknown params %q (moderate, aggressive)", o.params)
	}
	if o.sweep == "power" && (o.m < 1 || o.n < 1) {
		return fmt.Errorf("machine size must be positive, got M=%d N=%d", o.m, o.n)
	}
	return cli.Run("spacx-sweep", o.sweep, o.Flags, func() error {
		if o.sweep == "scale" {
			rows, err := exp.Fig22()
			if err != nil {
				return err
			}
			report.Fig22(os.Stdout, rows)
			return nil
		}
		pts, err := exp.PowerSweep(o.m, o.n, p)
		if err != nil {
			return err
		}
		report.PowerSurface(os.Stdout,
			fmt.Sprintf("SPACX network power surface, M=%d N=%d, %s parameters", o.m, o.n, p.Name), pts)
		return nil
	})
}
