package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"osdp/internal/telemetry"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples was reported; it has fewer than 10 beyond it")
	}
	if v, ok := percentile(seq(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples was reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples was reported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v; want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v; want 1 2 4", q1, med, q3)
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	span := func(name string, lo, hi int) telemetry.Span {
		return telemetry.Span{Name: name, Offset: us(lo), Dur: us(hi - lo)}
	}
	// Completion order, as a trace records them.
	spans := []telemetry.Span{
		span("auth", 0, 5),
		span("artifact.domain", 12, 15),
		span("artifact.predicate", 16, 18),
		span("compile", 10, 20),
		span("ledger.commit_wait", 22, 29),
		span("ledger.charge", 20, 30),
		span("scan", 30, 40),
		span("noise", 40, 41),
		span("encode", 41, 41), // empty span at a boundary
	}
	want := []time.Duration{us(5), us(3), us(2), us(5), us(7), us(3), us(10), us(1), 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v; want %v", got, want)
	}
	// Two identical intervals: the earlier-recorded one is the child.
	twin := []telemetry.Span{span("inner", 0, 4), span("outer", 0, 4)}
	if got := selfTimes(twin); got[0] != us(4) || got[1] != 0 {
		t.Errorf("identical intervals: selfTimes = %v; want [4µs 0]", got)
	}
	// Overlapping children are covered once.
	overlap := []telemetry.Span{span("a", 1, 5), span("b", 3, 8), span("p", 0, 10)}
	if got := selfTimes(overlap)[2]; got != us(3) {
		t.Errorf("parent of overlapping children: self = %v; want 3µs", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 3000, 2*time.Second, 32)
	b := poissonSchedule(7, 3000, 2*time.Second, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 3000, 2*time.Second, 32)) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 5700 || n > 6300 {
		t.Errorf("%d arrivals in 2 s at 3000/s", n)
	}
	seen := map[int]bool{}
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, x.at, i-1, a[i-1].at)
		}
		if x.analyst < 0 || x.analyst >= 32 {
			t.Fatalf("arrival %d goes to analyst %d", i, x.analyst)
		}
		seen[x.analyst] = true
	}
	if len(seen) != 32 {
		t.Errorf("only %d of 32 analysts send", len(seen))
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		b           []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", base, true, vUnchanged},
		{"within bound", scale(1.03, base), true, vUnchanged},
		{"latency up 20%", scale(1.2, base), true, vRegression},
		{"throughput down 20%", scale(0.8, base), false, vRegression},
		{"latency down 20%", scale(0.8, base), true, vImproved},
		{"wide spread", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, true, vUnresolved},
		{"wide spread but every run better", []float64{10, 50, 20, 40, 30, 15, 45, 25, 35, 30}, true, vImproved},
	} {
		if got := judge(base, tc.b, tc.lowerBetter, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		rec := record{Workload: wlMix, Result: result{Correct: true, Attempted: 1000, Failed: failed,
			Metrics: metricSet{"p50_ms": {Value: p50, Unit: "ms"}}},
			Extra: metricSet{"failed_frac": {Value: float64(failed) / 1000, Unit: "fraction"}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := strings.Join([]string{write("a1", 10, 0), write("a2", 10.1, 0), write("a3", 9.9, 0)}, ",")
	same := strings.Join([]string{write("b1", 10.05, 0), write("b2", 9.95, 0), write("b3", 10, 0)}, ",")
	slow := strings.Join([]string{write("c1", 13, 0), write("c2", 13.1, 0), write("c3", 12.9, 0)}, ",")
	failing := strings.Join([]string{write("d1", 10, 5), write("d2", 10, 5), write("d3", 10, 5)}, ",")
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {failing, 1}} {
		var out bytes.Buffer
		if code := realMain([]string{"--compare", "--spec", spec, a, tc.b}, &out, &out); code != tc.want {
			t.Errorf("compare against %s: exit %d, want %d\n%s", tc.b, code, tc.want, out.String())
		}
	}
}

// TestQuickSmoke runs every workload at -quick scale, untraced and
// traced, and asserts that every metric BENCHMARK.json names is emitted
// with its unit and that every check passes.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := func(trace bool) map[string]string {
		out := map[string]string{}
		for _, m := range spec.EndToEnd {
			if !trace {
				out[m.Name] = m.Unit
			}
		}
		for _, m := range spec.PerLayer {
			if trace {
				out[m.Name] = m.Unit
			}
		}
		return out
	}
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--workload", wl, "--quick", "--seed", "3", "--trace", trace,
					"--seconds", strconv.Itoa(smokeSeconds), "--workdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range res {
					keys = append(keys, k)
				}
				if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Fatalf("last line has keys %v; want correct, attempted, failed, metrics", keys)
				}
				var rec record
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
					t.Fatal(err)
				}
				for _, c := range rec.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				r := rec.Result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := units(trace == "1")
				for name, unit := range want {
					if m, ok := r.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
			})
		}
	}
}
