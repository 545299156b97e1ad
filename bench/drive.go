package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"osdp/internal/server"
	"osdp/internal/telemetry"
)

// tally accumulates a run's outcomes. Latencies and failures count only
// inside the measurement window; the accounting totals count every
// request, warm-up included, because the ledger and audit trail do.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64 // successful in-window query latencies (ms) by kind
	operator  []float64            // in-window operator request latencies (ms)
	late      []float64            // in-window open-loop dispatch lateness (ms)
	attempted int                  // in-window requests, drops included
	failed    int                  // in-window non-2xx, drops and failed checks

	okAll      int     // 2xx query responses in every phase
	epsAll     float64 // ε those responses charged
	badAnswers int     // answers that failed their check, every phase
	firstErr   string

	spans        spanAgg // traced runs: in-window successful queries
	traceMissing int
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, spans: spanAgg{self: map[string]time.Duration{}}}
}

func (t *tally) fail(inWindow bool, err error) {
	if inWindow {
		t.failed++
	}
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// spanAgg sums per-span self time over traced requests.
type spanAgg struct {
	self  map[string]time.Duration
	total time.Duration // summed trace durations
	durs  []float64     // trace durations (ms)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// query sends one request for client, timing it from due, and folds the
// outcome into t.
func (e *env) query(t *tally, client int, r request, due time.Time, inWindow bool) {
	id := e.nextID()
	code, body, _ := e.do(http.MethodPost, "/v1/sessions/"+e.sessions[client]+"/query", e.keys[client], id, r.body)
	lat := time.Since(due)

	var err, checkErr error
	if code == http.StatusOK {
		var resp server.QueryResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			checkErr = r.check(resp)
			err = checkErr
		}
	} else {
		err = fmt.Errorf("%s query: status %d: %s", r.kind, code, body)
	}
	var view telemetry.TraceView
	var self []time.Duration
	traced := false
	if e.tracer != nil && inWindow && err == nil {
		view, traced = e.tracer.Get(id)
		self = selfTimes(view.Spans)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if inWindow {
		t.attempted++
	}
	if code == http.StatusOK {
		t.okAll++
		t.epsAll += r.eps
	}
	if checkErr != nil {
		t.badAnswers++
	}
	if err != nil {
		t.fail(inWindow, err)
		return
	}
	if !inWindow {
		return
	}
	t.lat[r.kind] = append(t.lat[r.kind], ms(lat))
	if e.tracer == nil {
		return
	}
	if !traced {
		t.traceMissing++
		return
	}
	for i, sp := range view.Spans {
		t.spans.self[sp.Name] += self[i]
	}
	t.spans.total += view.Duration
	t.spans.durs = append(t.spans.durs, ms(view.Duration))
}

// clientSeed derives an analyst's request stream from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client) }

// closedLoop runs w.analysts clients, each sending its next request the
// moment the previous answer arrives, until end. Requests that start at
// or after winStart are measured.
func closedLoop(e *env, w *workload, seed int64, winStart, end time.Time, t *tally) {
	var wg sync.WaitGroup
	for c := 0; c < w.analysts; c++ {
		next := w.newClient(c, rand.New(rand.NewSource(clientSeed(seed, c))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				e.query(t, c, next(), now, !now.Before(winStart))
			}
		}()
	}
	wg.Wait()
}

// arrival is one open-loop request: when it is due, relative to the
// start of the run, and which analyst sends it.
type arrival struct {
	at      time.Duration
	analyst int
}

// poissonSchedule draws the open-loop arrivals over d from seed:
// exponential gaps at rate per second, each sent by a uniformly chosen
// analyst.
func poissonSchedule(seed int64, rate float64, d time.Duration, analysts int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, int(rate*d.Seconds()*1.1))
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, analyst: rng.Intn(analysts)})
	}
}

// maxOutstanding caps open-loop requests in flight. An arrival beyond it
// is dropped and counted failed instead of queueing in the generator.
const maxOutstanding = 1024

// openLoop sends each scheduled arrival when it falls due, whether or not
// earlier requests have finished, and times each from its due time.
// Requests are drawn on the dispatching goroutine, so each analyst's
// stream is read in schedule order.
func openLoop(e *env, w *workload, seed int64, sched []arrival, start, winStart time.Time, t *tally) {
	next := make([]func() request, w.analysts)
	for c := range next {
		next[c] = w.newClient(c, rand.New(rand.NewSource(clientSeed(seed, c))))
	}
	sem := make(chan struct{}, maxOutstanding) // counting semaphore
	var wg sync.WaitGroup
	for _, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		inWindow := !due.Before(winStart)
		late := time.Since(due)
		select {
		case sem <- struct{}{}:
			r := next[a.analyst]()
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.query(t, a.analyst, r, due, inWindow)
				<-sem
			}()
			if inWindow {
				t.mu.Lock()
				t.late = append(t.late, ms(late))
				t.mu.Unlock()
			}
		default:
			t.mu.Lock()
			if inWindow {
				t.attempted++
			}
			t.fail(inWindow, fmt.Errorf("open loop: %d requests outstanding, arrival dropped", maxOutstanding))
			t.mu.Unlock()
		}
	}
	wg.Wait()
}

// operatorPeriod is how often the operator loop polls.
const operatorPeriod = 250 * time.Millisecond

// operatorLoop polls GET /metrics and GET /admin/spend until stop closes,
// as an operator's dashboard does beside live traffic.
func operatorLoop(e *env, winStart time.Time, stop <-chan struct{}, t *tally) {
	tick := time.NewTicker(operatorPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, op := range []struct{ path, bearer string }{{"/metrics", ""}, {"/admin/spend", adminToken}} {
			start := time.Now()
			code, _, d := e.do(http.MethodGet, op.path, op.bearer, e.nextID(), nil)
			inWindow := !start.Before(winStart)
			t.mu.Lock()
			if inWindow {
				t.attempted++
			}
			if code != http.StatusOK {
				t.fail(inWindow, fmt.Errorf("GET %s: status %d", op.path, code))
			} else if inWindow {
				t.operator = append(t.operator, ms(d))
			}
			t.mu.Unlock()
		}
	}
}

// probe is a snapshot, at a window boundary, of the program's counters
// and the process's resource use.
type probe struct {
	prom       promSample
	totalAlloc uint64
	cpu        time.Duration // user + system
	gcCPU      float64       // seconds
	busyCPU    float64       // seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func takeProbe(e *env) (probe, error) {
	var p probe
	var err error
	if p.prom, err = e.scrape(); err != nil {
		return p, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.totalAlloc = m.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return p, fmt.Errorf("getrusage: %w", err)
	}
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	p.gcCPU = s[0].Value.Float64()
	p.busyCPU = s[1].Value.Float64() - s[2].Value.Float64()
	return p, nil
}

// window is one measured traffic window.
type window struct {
	t             *tally
	length        time.Duration
	before, after probe
}

// measure drives w against e for its warm-up and then win, probing the
// program at both window boundaries.
func measure(e *env, w *workload, seed int64, win time.Duration) (*window, error) {
	out := &window{t: newTally(), length: win}
	start := time.Now()
	winStart := start.Add(w.warmup)
	end := winStart.Add(win)

	var probeErr error
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		time.Sleep(time.Until(winStart))
		out.before, probeErr = takeProbe(e)
	}()
	stop := make(chan struct{})
	var operator sync.WaitGroup
	if w.operator {
		operator.Add(1)
		go func() {
			defer operator.Done()
			operatorLoop(e, winStart, stop, out.t)
		}()
	}
	if w.rate > 0 {
		openLoop(e, w, seed, poissonSchedule(seed, w.rate, end.Sub(start), w.analysts), start, winStart, out.t)
	} else {
		closedLoop(e, w, seed, winStart, end, out.t)
	}
	close(stop)
	operator.Wait()
	<-probed
	if probeErr != nil {
		return nil, probeErr
	}
	var err error
	out.after, err = takeProbe(e)
	return out, err
}

// queries is the number of queries the server answered or refused
// between the window's probes, by its own counters.
func (w *window) queries() float64 {
	d := promDelta{w.before.prom, w.after.prom}
	return d.count("osdp_queries_total") + d.count("osdp_query_errors_total")
}
