package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"osdp/internal/dataset"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload   string
	seed       int64
	window     time.Duration
	trace      bool
	workdir    string // parent of the run's temporary directories
	scale      scale
	setups     repetition // setup_s is the median set-up
	recoveries repetition // recovery_s is the median re-open
}

// repetition is how often a run repeats a step: at least min times, then
// until the repeats have taken span in total, at most max times. Cheap
// steps thus repeat often enough that their median is steady.
type repetition struct {
	min, max int
	span     time.Duration
}

func (r repetition) do(f func() error) error {
	start := time.Now()
	for i := 0; i < r.max && (i < r.min || time.Since(start) < r.span); i++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// spanNames is the closed span taxonomy the server records.
var spanNames = []string{
	"auth", "admission", "compile", "artifact.domain", "artifact.predicate",
	"ledger.charge", "ledger.commit_wait", "scan", "noise", "encode",
}

// spansOnEveryWorkload are the spans every workload's queries record, so
// their self time is reported in ms. The others (scan, artifact.*) are
// absent from some workloads by design and are reported as shares only.
var spansOnEveryWorkload = map[string]bool{
	"auth": true, "admission": true, "compile": true, "ledger.charge": true,
	"ledger.commit_wait": true, "noise": true, "encode": true,
}

// run executes one workload: repeated set-ups, a warm-up and an untraced
// window, the accounting checks and recovery, and with cfg.trace a
// second, traced window on a fresh set-up.
func run(cfg runConfig) (*record, error) {
	dataset.SetScanWorkers(runtime.NumCPU())
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var setups []setupTimes
	var e *env
	err = cfg.setups.do(func() error {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return err
			}
			e = nil
		}
		var st setupTimes
		var err error
		if e, st, err = setup(w, work, false); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	win, err := measure(e, w, cfg.seed, cfg.window)
	if err != nil {
		return nil, err
	}
	// The first GC moves sync.Pool contents (encoder buffers sized to the
	// last responses) to the victim cache; the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	checks, recs, err := finish(e, win.t, cfg.recoveries)
	if err != nil {
		return nil, err
	}

	rec := &record{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Envelope: newEnvelope(cfg, w, work),
	}
	if late := sortedCopy(win.t.late); len(late) > 0 {
		if v, ok := percentile(late, 0.99); ok {
			rec.Envelope.GeneratorLateP99Ms = &v
		}
	}
	all := sortedLatencies(win.t.lat)
	e2e := endToEnd(win, all, setups, mem.HeapAlloc)
	rec.Result = result{Attempted: win.t.attempted, Failed: win.t.failed, Metrics: e2e}
	rec.Extra, rec.Envelope.Samples = extras(w, win, all, setups, recs)
	if _, ok := e2e["p90_ms"]; !ok {
		checks = append(checks, check{Name: "p90_samples", Detail: fmt.Sprintf(
			"p90_ms refused: %d successful requests leave fewer than %d beyond it", len(all), minTail)})
	}

	if cfg.trace {
		te, _, err := setup(w, work, true)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		twin, err := measure(te, w, cfg.seed, cfg.window)
		if err != nil {
			return nil, err
		}
		tchecks, _, err := finish(te, twin.t, repetition{min: 1, max: 1})
		if err != nil {
			return nil, err
		}
		for i := range tchecks {
			tchecks[i].Name = "traced." + tchecks[i].Name
		}
		checks = append(checks, tchecks...)
		rec.Envelope.TraceMissing = twin.t.traceMissing
		rec.Result.Metrics = perLayer(win, twin, all, setups, recs)
	}
	rec.Checks = checks
	rec.Result.Correct = true
	for _, c := range checks {
		rec.Result.Correct = rec.Result.Correct && c.OK
	}
	return rec, nil
}

// finish runs the accounting checks on a measured env, closes it, and
// re-opens its durable state as often as reps says.
func finish(e *env, t *tally, reps repetition) ([]check, []recovery, error) {
	spent := e.led.TotalSpent()
	checks := []check{
		{Name: "answers", OK: t.badAnswers == 0, Detail: fmt.Sprintf("%d failed answer checks; first error: %s", t.badAnswers, t.firstErr)},
		{Name: "ledger_spend", OK: approxEqual(spent, t.epsAll), Detail: fmt.Sprintf("ledger TotalSpent %.9g, answered ε %.9g", spent, t.epsAll)},
	}
	if err := e.close(); err != nil {
		return nil, nil, err
	}
	released, err := e.releasedEvents()
	if err != nil {
		return nil, nil, err
	}
	checks = append(checks, check{Name: "audit_released", OK: released == t.okAll,
		Detail: fmt.Sprintf("%d released events, %d answered queries", released, t.okAll)})
	var recs []recovery
	replayOK := true
	err = reps.do(func() error {
		r, err := e.reopen()
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		replayOK = replayOK && approxEqual(r.spent, spent)
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	checks = append(checks, check{Name: "replayed_spend", OK: replayOK,
		Detail: fmt.Sprintf("spend %.9g before close, %.9g after replay", spent, recs[len(recs)-1].spent)})
	for i := range checks {
		if checks[i].OK {
			checks[i].Detail = ""
		}
	}
	return checks, recs, nil
}

// approxEqual compares ε totals summed in different orders.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func sortedLatencies(byKind map[string][]float64) []float64 {
	var all []float64
	for _, l := range byKind {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

// medianSeconds is the median, in seconds, of f over xs.
func medianSeconds[T any](xs []T, f func(T) time.Duration) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = f(x).Seconds()
	}
	return median(s)
}

// endToEnd assembles the untraced metrics BENCHMARK.json gates.
func endToEnd(win *window, all []float64, st []setupTimes, heap uint64) metricSet {
	m := metricSet{}
	m.add("setup_s", medianSeconds(st, setupTimes.total), "s")
	m.add("qps", float64(len(all))/win.length.Seconds(), "1/s")
	if v, ok := percentile(all, 0.5); ok {
		m.add("p50_ms", v, "ms")
	}
	if v, ok := percentile(all, 0.90); ok {
		m.add("p90_ms", v, "ms")
	}
	m.add("heap_mb", float64(heap)/(1<<20), "MB")
	return m
}

// extras assembles the record's ungraded metrics, and the sample count
// behind every metric of the run.
func extras(w *workload, win *window, all []float64, st []setupTimes, rs []recovery) (metricSet, map[string]int) {
	m := metricSet{}
	samples := map[string]int{
		"setup_s": len(st), "recovery_s": len(rs), "qps": len(all),
		"p50_ms": len(all), "p90_ms": len(all), "p99_ms": len(all), "heap_mb": 1,
	}
	m.add("failed_frac", float64(win.t.failed)/float64(max(1, win.t.attempted)), "fraction")
	// Restarting mix-1m or sample-release replays a few thousand records
	// in milliseconds, so a run's recovery_s lands in one phase of a
	// shared host's CPU speed; it is reported, not gated.
	m.add("recovery_s", medianSeconds(rs, func(r recovery) time.Duration { return r.ledgerOpen + r.auditOpen }), "s")
	if v, ok := percentile(all, 0.99); ok {
		m.add("p99_ms", v, "ms")
	}
	if w.name == wlMix {
		for i, name := range kindP50s() {
			lat := win.t.lat[mixKinds[i]]
			if v, ok := percentile(sortedCopy(lat), 0.5); ok {
				m.add(name, v, "ms")
			}
			samples[name] = len(lat)
		}
	}
	if w.operator {
		if v, ok := percentile(sortedCopy(win.t.operator), 0.5); ok {
			m.add("operator_p50_ms", v, "ms")
		}
		samples["operator_p50_ms"] = len(win.t.operator)
	}
	return m, samples
}

// perLayer assembles the traced run's per-layer metrics: span self times
// and shares from the traced window, the program's counters and process
// costs from the untraced one.
func perLayer(win, twin *window, all []float64, st []setupTimes, rs []recovery) metricSet {
	m := metricSet{}
	sp := twin.t.spans
	total := sp.total.Seconds()
	n := float64(len(sp.durs))
	var attributed time.Duration
	for _, name := range spanNames {
		self := sp.self[name]
		attributed += self
		m.add("span."+name+".share", self.Seconds()/total, "fraction")
		if spansOnEveryWorkload[name] {
			m.add("span."+name+".self_ms", ms(self)/n, "ms")
		}
	}
	m.add("span.unattributed.share", 1-attributed.Seconds()/total, "fraction")
	m.add("span.trace_ms_p50", median(sp.durs), "ms")
	untraced, _ := percentile(all, 0.5)
	traced, _ := percentile(sortedLatencies(twin.t.lat), 0.5)
	m.add("tracing.overhead_pct", 100*(traced/untraced-1), "%")

	d := promDelta{win.before.prom, win.after.prom}
	q := win.queries()
	m.add("scan.chunks_per_query", d.count("osdp_scan_chunks_processed_total")/q, "count")
	m.add("scan.degraded_per_query", d.count("osdp_scan_degraded_total")/q, "count")
	m.add("artifact.hits_per_query", d.count("osdp_cache_hits_total")/q, "count")
	m.add("artifact.misses_per_query", d.count("osdp_cache_misses_total")/q, "count")
	m.add("admission.queued_per_query", d.count("osdp_admission_wait_seconds_count")/q, "count")
	m.add("admission.rejected", d.count("osdp_admission_rejected_total"), "count")
	m.add("http.request_ms_mean", 1000*d.mean("osdp_http_request_duration_seconds"), "ms")
	m.add("ledger.records_per_fsync", d.mean("osdp_ledger_fsync_batch_records"), "count")
	m.add("ledger.fsync_ms_mean", 1000*d.mean("osdp_ledger_wal_fsync_seconds"), "ms")
	m.add("ledger.commit_wait_ms_mean", 1000*d.mean("osdp_ledger_group_commit_wait_seconds"), "ms")
	m.add("audit.fsync_ms_mean", 1000*d.mean("osdp_audit_fsync_seconds"), "ms")

	m.add("recovery.ledger_open_s", medianSeconds(rs, func(r recovery) time.Duration { return r.ledgerOpen }), "s")
	m.add("recovery.audit_open_s", medianSeconds(rs, func(r recovery) time.Duration { return r.auditOpen }), "s")
	m.add("recovery.records", float64(rs[len(rs)-1].records), "count")
	m.add("setup.ledger_open_s", medianSeconds(st, func(s setupTimes) time.Duration { return s.ledgerOpen }), "s")
	m.add("setup.audit_open_s", medianSeconds(st, func(s setupTimes) time.Duration { return s.auditOpen }), "s")
	m.add("setup.register_s", medianSeconds(st, func(s setupTimes) time.Duration { return s.register }), "s")
	m.add("setup.sessions_s", medianSeconds(st, func(s setupTimes) time.Duration { return s.sessions }), "s")

	b, a := win.before, win.after
	m.add("proc.alloc_kb_per_op", float64(a.totalAlloc-b.totalAlloc)/1024/q, "KB")
	m.add("proc.cpu_ms_per_op", ms(a.cpu-b.cpu)/q, "ms")
	m.add("proc.gc_cpu_frac", (a.gcCPU-b.gcCPU)/(a.busyCPU-b.busyCPU), "fraction")
	return m
}

// newEnvelope records what the run ran on.
func newEnvelope(cfg runConfig, w *workload, work string) envelope {
	env := envelope{
		Commit:      "unknown",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ScanWorkers: dataset.ScanWorkers(),
		Seed:        cfg.seed,
		WarmupS:     w.warmup.Seconds(),
		WindowS:     cfg.window.Seconds(),
		Rows:        w.table.Len(),
		TempFS:      fsType(work),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Dirty = s.Value == "true"
			}
		}
	}
	return env
}

// fsType names the filesystem holding dir, where fsync cost comes from.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := uint64(st.Type)
	names := map[uint64]string{
		0x01021994: "tmpfs", 0xef53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}
