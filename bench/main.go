// Command bench is the OSDP server's benchmark. It builds the server the
// way cmd/osdp-server does, drives Server.Handler() in-process with real
// JSON bodies and bearer keys (no sockets), generates every input from
// --seed, checks every answer and the ε accounting, and prints its
// metrics. See README.md for the workloads and the metric map.
//
// Usage:
//
//	bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]
//	bench --compare [--spec BENCHMARK.json] A1.json,A2.json,... B1.json,B2.json,...
//
// A run prints its full record (envelope, checks, every metric) as one
// JSON line, then as its last line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. It exits 1 when a check fails. --compare judges
// candidate runs B against baseline runs A, metric by metric, and exits 1
// on a regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "measurement window, after the workload's warm-up")
	trace := fs.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
	out := fs.String("out", "", "also write the run's record to this file")
	quick := fs.Bool("quick", false, "small tables and, unless --seconds is given, 1 s windows: a smoke test")
	workdir := fs.String("workdir", ".bench_build/work", "where the ledger and audit directories go")
	cmp := fs.Bool("compare", false, "compare two comma-separated lists of records: baseline, candidate")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two comma-separated lists of record files")
			return 2
		}
		n, err := runCompare(*spec, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if n > 0 {
			fmt.Fprintf(stderr, "bench: %d regression(s)\n", n)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want --workload NAME [--seed N] [--seconds S>=1] [--trace 0|1]")
		return 2
	}
	cfg := runConfig{
		workload: *wl, seed: *seed, trace: *trace == 1, workdir: *workdir,
		window: time.Duration(*seconds) * time.Second, scale: fullScale(),
		setups:     repetition{min: 3, max: 1000, span: 4 * time.Second},
		recoveries: repetition{min: 5, max: 200, span: time.Second},
	}
	if *quick {
		cfg.scale = quickScale()
		cfg.setups, cfg.recoveries = repetition{min: 2, max: 2}, repetition{min: 2, max: 2}
		cfg.window = time.Second
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				cfg.window = time.Duration(*seconds) * time.Second
			}
		})
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := emit(rec, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "bench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// emit prints the record line and the result line, and writes the record
// to path when set.
func emit(rec *record, path string, stdout io.Writer) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return err
}

func runCompare(specPath string, aPaths, bPaths []string, out io.Writer) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := loadRecords(aPaths)
	if err != nil {
		return 0, err
	}
	b, err := loadRecords(bPaths)
	if err != nil {
		return 0, err
	}
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("compare needs records on both sides")
	}
	return compare(spec, a, b, out), nil
}
