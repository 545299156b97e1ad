package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// failedFracBound is the absolute rise in failed_frac that counts as a
// regression.
const failedFracBound = 0.001

// Verdicts.
const (
	vUnchanged  = "unchanged"
	vRegression = "REGRESSION"
	vImproved   = "improved"
	vUnresolved = "unresolved"
	vInfo       = "-"
)

// judgement compares one (workload, metric) across baseline runs a and
// candidate runs b.
type judgement struct {
	q1A, medA, q3A float64
	q1B, medB, q3B float64
	spread         float64 // wider side's quartile distance over its median
	change         float64 // relative change of the median; > 0 is worse
	verdict        string
}

// judge decides one metric: a median worse by more than bound is a
// regression; a gain needs the candidate to win nine tenths of the
// index-paired runs and the medians to differ by more than the
// baseline's quartile distance; and where either side's spread exceeds
// bound the metric is unresolved unless every candidate run beats every
// baseline run.
func judge(a, b []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.q1A, j.medA, j.q3A = quartiles(a)
	j.q1B, j.medB, j.q3B = quartiles(b)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	j.change = sign * (j.medB - j.medA) / math.Abs(j.medA)
	j.spread = math.Max((j.q3A-j.q1A)/math.Abs(j.medA), (j.q3B-j.q1B)/math.Abs(j.medB))
	better := func(x, y float64) bool { return sign*x < sign*y }

	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	switch {
	case j.spread > bound && allBetter:
		j.verdict = vImproved
	case j.spread > bound:
		j.verdict = vUnresolved
	case j.change > bound:
		j.verdict = vRegression
	case j.change < 0 && 10*wins >= 9*pairs && math.Abs(j.medB-j.medA) > j.q3A-j.q1A:
		j.verdict = vImproved
	default:
		j.verdict = vUnchanged
	}
	return j
}

func loadRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// values collects one metric across the records of a workload. Untraced
// records carry the end-to-end metrics, traced ones the per-layer metrics;
// failed_frac and the workload-specific metrics come from either.
func values(rs []record, workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Extra[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compare prints a verdict for every (workload, metric) the baseline
// records a and candidate records b share, and returns how many are
// regressions.
func compare(spec *benchSpec, a, b []record, out io.Writer) int {
	workloads := map[string]bool{}
	for _, r := range a {
		workloads[r.Workload] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tspread\tbound\tverdict")
	regressions := 0
	row := func(wl, name, unit string, a, b []float64, lowerBetter bool, bound float64, graded bool) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		j := judge(a, b, lowerBetter, bound)
		verdict, boundText := j.verdict, fmt.Sprintf("%.3g", bound)
		if !graded {
			verdict, boundText = vInfo, "-"
		}
		if verdict == vRegression {
			regressions++
		}
		change, spread := "n/a", "n/a" // a zero median has no relative change
		if !math.IsNaN(j.change) && !math.IsInf(j.change, 0) {
			change, spread = fmt.Sprintf("%+.2f%%", 100*j.change), fmt.Sprintf("%.3g", j.spread)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (n=%d)\t%.4g [%.4g, %.4g] (n=%d)\t%s\t%s\t%s\t%s\n",
			wl, name, unit, j.medA, j.q1A, j.q3A, len(a), j.medB, j.q1B, j.q3B, len(b),
			change, spread, boundText, verdict)
	}
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			row(wl, m.Name, m.Unit, values(a, wl, m.Name, false), values(b, wl, m.Name, false),
				m.Better == "lower", m.Bound, true)
		}
		// failed_frac is 0 on a healthy run, so its bound is absolute.
		fa, fb := values(a, wl, "failed_frac", false), values(b, wl, "failed_frac", false)
		if len(fa) > 0 && len(fb) > 0 {
			verdict := vUnchanged
			if median(fb)-median(fa) > failedFracBound {
				verdict = vRegression
				regressions++
			}
			fmt.Fprintf(tw, "%s\tfailed_frac\tfraction\t%.4g (n=%d)\t%.4g (n=%d)\t\t\t+%g\t%s\n",
				wl, median(fa), len(fa), median(fb), len(fb), failedFracBound, verdict)
		}
		for _, m := range extraMetrics() {
			row(wl, m.Name, m.Unit, values(a, wl, m.Name, false), values(b, wl, m.Name, false), true, 0, false)
		}
		for _, m := range spec.PerLayer {
			row(wl, m.Name, m.Unit, values(a, wl, m.Name, true), values(b, wl, m.Name, true), m.Better == "lower", 0, false)
		}
	}
	tw.Flush()
	return regressions
}

// extraMetrics are the record's ungraded metrics -compare reports, all
// lower-is-better.
func extraMetrics() []metricName {
	out := []metricName{{"recovery_s", "s"}, {"p99_ms", "ms"}, {"operator_p50_ms", "ms"}}
	for _, k := range kindP50s() {
		out = append(out, metricName{k, "ms"})
	}
	return out
}

type metricName struct{ Name, Unit string }

// kindP50s names the per-kind median latencies mix-1m reports.
func kindP50s() []string {
	out := make([]string, len(mixKinds))
	for i, k := range mixKinds {
		out[i] = k + "_p50_ms"
	}
	return out
}
