// Command osdp-bench regenerates the paper's tables and figures on the
// synthetic substrates and prints them as text tables.
//
// Usage:
//
//	osdp-bench [-exp all|table1|table2|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|crossover|exclusion|ablations|extensions]
//	           [-quick] [-seed N] [-trials N]
//	osdp-bench -workload BENCH_workload.json [-quick]
//
// -quick shrinks the workloads for a fast smoke run.
//
// -workload runs only the range-workload estimator benchmark (the
// serving-side workload engine: per-estimator synopsis fit latency,
// per-range answer latency, and workload L1 error vs the flat Laplace
// baseline on a clustered 1M-row table — 100k with -quick) and writes
// the result to the given JSON file, the artifact CI tracks so the
// structure-exploiting estimators' range-workload advantage cannot
// silently regress.
//
// The server's speed is measured by the benchmark under bench/
// (bash bench/run.sh), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"osdp/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma-separated list or 'all')")
	quick := flag.Bool("quick", false, "use the reduced quick configuration")
	seed := flag.Int64("seed", 0, "override the random seed (0 keeps the default)")
	trials := flag.Int("trials", 0, "override the trial count (0 keeps the default)")
	workloadOut := flag.String("workload", "", "run the range-workload estimator benchmark and write its JSON result to this file")
	flag.Parse()

	if *workloadOut != "" {
		if err := runWorkloadBench(*workloadOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
		cfg.Tippers.Seed = *seed
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}

	runners := map[string]func() []*experiments.Report{
		"table1": func() []*experiments.Report {
			return []*experiments.Report{experiments.Table1(cfg, 200000)}
		},
		"table2": func() []*experiments.Report {
			return []*experiments.Report{experiments.Table2(cfg)}
		},
		"fig1": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.Figure1(cfg, 1.0),
				experiments.Figure1(cfg, 0.01),
			}
		},
		"fig2": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.FigureNGrams(cfg, 4, 1.0),
				experiments.FigureNGrams(cfg, 4, 0.01),
			}
		},
		"fig3": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.FigureNGrams(cfg, 5, 1.0),
				experiments.FigureNGrams(cfg, 5, 0.01),
			}
		},
		"fig4": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.Figure4(cfg, 1.0),
				experiments.Figure4(cfg, 0.01),
			}
		},
		"fig5": func() []*experiments.Report {
			return []*experiments.Report{experiments.Figure5(cfg, 1.0)}
		},
		"fig6": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.Figure6(cfg, 1.0),
				experiments.Figure6(cfg, 0.01),
			}
		},
		"fig7": func() []*experiments.Report {
			return []*experiments.Report{experiments.Figure78(cfg, 1.0, "MRE")}
		},
		"fig8": func() []*experiments.Report {
			return []*experiments.Report{experiments.Figure78(cfg, 1.0, "Rel95")}
		},
		"fig9": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.Figure9(cfg, 1.0, 0.99),
				experiments.Figure9(cfg, 1.0, 0.50),
			}
		},
		"fig10": func() []*experiments.Report {
			return []*experiments.Report{experiments.Figure10(cfg, 1.0)}
		},
		"crossover": func() []*experiments.Report {
			return []*experiments.Report{experiments.CrossoverReport()}
		},
		"exclusion": func() []*experiments.Report {
			return []*experiments.Report{experiments.ExclusionExperiment(cfg, 200000)}
		},
		"ablations": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.DAWAzRhoSweep(cfg, 1.0, []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5}),
				experiments.L1PostprocessAblation(cfg, 1.0),
				experiments.ZeroSourceAblation(cfg, 1.0),
				experiments.TruncationSweep(cfg, 4, 1.0, 4),
			}
		},
		"extensions": func() []*experiments.Report {
			return []*experiments.Report{
				experiments.RecipeGeneralityReport(cfg, 1.0),
				experiments.AGrid2DReport(cfg, 1.0),
				experiments.PrivBayesReport(cfg, []float64{1.0, 0.2}),
				experiments.RangeWorkloadReport(cfg, 1.0, 200),
				experiments.ConstraintClosureReport(cfg),
				experiments.PolicyLearningReport(cfg, []int{100, 500, 2000}),
			}
		},
	}
	order := []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "crossover", "exclusion",
		"ablations", "extensions",
	}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	for _, name := range selected {
		start := time.Now()
		for _, rep := range runners[name]() {
			fmt.Println(rep.String())
		}
		fmt.Printf("[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// runWorkloadBench measures the range-workload estimators and writes
// the result as JSON.
func runWorkloadBench(path string, quick bool) error {
	rows, queries := 1_000_000, 1000
	if quick {
		rows, queries = 100_000, 200
	}
	res, err := experiments.MeasureWorkload(rows, 1024, queries, 1.0)
	if err != nil {
		return fmt.Errorf("workload benchmark: %w", err)
	}
	fmt.Println(res.String())
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
