package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"osdp/internal/telemetry"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 from fewer than 1000 samples rests on fewer than ten observations
// and is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank p-quantile of sorted, and false when
// fewer than minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || float64(n)*(1-p) < minTail-1e-9 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match that tool's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// selfTimes returns, for each span of one trace, its duration minus the
// part of its interval covered by the spans nested inside it. A span is
// nested in another when its interval lies within the other's; spans
// are recorded in completion order, so of two identical intervals the
// earlier-recorded one is the child.
func selfTimes(spans []telemetry.Span) []time.Duration {
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Duration }
	for i, s := range spans {
		lo, hi := s.Offset, s.Offset+s.Dur
		var kids []iv
		for j, c := range spans {
			clo, chi := c.Offset, c.Offset+c.Dur
			if j == i || clo < lo || chi > hi || (clo == lo && chi == hi && j > i) {
				continue
			}
			kids = append(kids, iv{clo, chi})
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered time.Duration
		end := lo
		for _, k := range kids {
			if k.lo > end {
				end = k.lo
			}
			if k.hi > end {
				covered += k.hi - end
				end = k.hi
			}
		}
		out[i] = s.Dur - covered
	}
	return out
}

// promSample maps each series of a Prometheus text exposition
// ("name{labels}") to its value.
type promSample map[string]float64

// parseProm reads a Prometheus text exposition.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of the named metric, whatever its labels.
func (p promSample) family(name string) float64 {
	var sum float64
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// promDelta is the change of a scrape pair over a measurement window.
type promDelta struct{ before, after promSample }

// count is the window's increase of a counter family.
func (d promDelta) count(name string) float64 {
	return d.after.family(name) - d.before.family(name)
}

// mean is the window's mean observation of a histogram family, 0 when it
// observed nothing.
func (d promDelta) mean(name string) float64 {
	n := d.count(name + "_count")
	if n == 0 {
		return 0
	}
	return d.count(name+"_sum") / n
}
