package main

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints: with --trace 0 it holds every
// end-to-end metric, with --trace 1 every per-layer metric.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// check is one answer or accounting check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// envelope records what a run ran on and how much it measured.
type envelope struct {
	Commit      string  `json:"commit"`
	Dirty       bool    `json:"dirty"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	ScanWorkers int     `json:"scan_workers"`
	Seed        int64   `json:"seed"`
	WarmupS     float64 `json:"warmup_s"`
	WindowS     float64 `json:"window_s"`
	TempFS      string  `json:"temp_fs"`
	Rows        int     `json:"rows"`
	// Samples counts the observations behind each metric; setup_s and
	// recovery_s count repetitions.
	Samples map[string]int `json:"samples"`
	// GeneratorLateP99Ms is how late the open-loop generator sent its
	// arrivals, at the 99th percentile.
	GeneratorLateP99Ms *float64 `json:"generator.late_p99_ms,omitempty"`
	// TraceMissing counts traced requests whose trace had left the ring.
	TraceMissing int `json:"trace_missing,omitempty"`
}

// record is everything one run reports; -out writes it and -compare
// reads it back.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Envelope envelope `json:"envelope"`
	Result   result   `json:"result"`
	// Extra holds the ungraded metrics: failed_frac (0 on a healthy run),
	// recovery_s, p99_ms where the sample supports it, and the latencies
	// that exist on one workload only (per kind, operator).
	Extra  metricSet `json:"extra"`
	Checks []check   `json:"checks"`
}
