package cli

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spacx/internal/obs/ledger"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Flags)
		want string
	}{
		{"valid", func(*Flags) {}, ""},
		{"-j < 1", func(f *Flags) { f.Jobs = 0 }, "-j must be >= 1, got 0"},
		{"negative -http-linger", func(f *Flags) { f.HTTPLinger = -time.Second }, "-http-linger must be >= 0, got -1s"},
		{"negative -regress", func(f *Flags) { f.Regress = -1 }, "-regress must be >= 0, got -1"},
		{"-regress without -ledger", func(f *Flags) { f.Regress = 1.5 }, "-regress needs -ledger to compare against"},
		{"negative -ledger-keep", func(f *Flags) { f.LedgerKeep = -1 }, "-ledger-keep must be >= 0, got -1"},
		{"-ledger-keep without -ledger", func(f *Flags) { f.LedgerKeep = 3 }, "-ledger-keep needs -ledger to prune"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := Flags{Jobs: 1}
			tc.edit(&f)
			err := f.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
			// Run must refuse the same flags before touching anything.
			ran := false
			if err := Run("cmd", "t", f, func() error { ran = true; return nil }); err == nil || ran {
				t.Fatalf("Run accepted invalid flags: err=%v ran=%v", err, ran)
			}
		})
	}
}

func TestRunFlushesOnCancel(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Jobs: 1,
		Metrics:    filepath.Join(dir, "m.prom"),
		LedgerPath: filepath.Join(dir, "runs.jsonl")}
	err := Run("spacx-test", "target", f, func() error { return context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(f.Metrics); err != nil {
		t.Errorf("interrupted run wrote no -metrics file: %v", err)
	}
	recs, err := ledger.Read(f.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Cmd != "spacx-test" || recs[0].Target != "target" {
		t.Fatalf("interrupted run ledger = %+v, want one spacx-test/target record", recs)
	}
}

func TestRunBodyErrorSkipsFlush(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Jobs: 1,
		Metrics:    filepath.Join(dir, "m.prom"),
		LedgerPath: filepath.Join(dir, "runs.jsonl")}
	boom := errors.New("boom")
	if err := Run("spacx-test", "target", f, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the body's error", err)
	}
	for _, path := range []string{f.Metrics, f.LedgerPath} {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s written despite the failed body", path)
		}
	}
}

func TestRunFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Jobs: 2,
		Metrics:    filepath.Join(dir, "m.prom"),
		Verbose:    true,
		HTTPAddr:   "127.0.0.1:0",
		HTTPLinger: 10 * time.Millisecond,
		LedgerPath: filepath.Join(dir, "runs.jsonl"),
		LedgerKeep: 1,
		Progress:   true,
		Regress:    100,
	}
	for i := 0; i < 3; i++ {
		if err := Run("spacx-test", "target", f, func() error { return nil }); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	recs, err := ledger.Read(f.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	// Each run prunes to one record before appending its own.
	if len(recs) != 2 {
		t.Fatalf("ledger records = %d, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Jobs != 2 || rec.PeakGoroutines <= 0 {
			t.Errorf("record missing header or runtime stats: %+v", rec)
		}
	}
	if _, err := os.Stat(f.Metrics); err != nil {
		t.Errorf("no -metrics file: %v", err)
	}
}

func TestRunPruneError(t *testing.T) {
	f := Flags{Jobs: 1, LedgerPath: t.TempDir(), LedgerKeep: 1}
	err := Run("spacx-test", "target", f, func() error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "prune ledger: ") {
		t.Fatalf("Run error = %v, want a prune ledger error", err)
	}
}

func TestRegister(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	want := "cpuprofile http http-linger j ledger ledger-keep memprofile metrics progress regress v"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("flags = %q, want %q", got, want)
	}
	if f.Jobs != runtime.NumCPU() || f.HTTPLinger != 2*time.Second {
		t.Errorf("defaults: -j %d, -http-linger %v", f.Jobs, f.HTTPLinger)
	}
	if err := fs.Parse([]string{"-j", "3", "-ledger", "runs.jsonl", "-regress", "1.5"}); err != nil {
		t.Fatal(err)
	}
	if f.Jobs != 3 || f.LedgerPath != "runs.jsonl" || f.Regress != 1.5 {
		t.Errorf("parsed flags wrong: %+v", f)
	}
}
