package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, and whether the sample supports it: at least minTail samples
// must lie strictly beyond the rank. samples must be sorted.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

// nearestRank is the 1-based rank of the p-th percentile of n samples;
// the tolerance keeps float error in p*n/100 from bumping an exact rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// highestSupported names the highest of the usual tail percentiles the
// sample count supports, for reporting alongside the fixed ones.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if n-nearestRank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// median of an unsorted slice (it is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// stepResult is one open-loop rate step as measured.
type stepResult struct {
	rate      float64 // offered requests/second
	issued    int
	completed int // completed successfully before the issue window closed
	failed    int
	p99ms     float64
	p99ok     bool // enough samples for a p99
}

// meetsLimit is the open-loop latency limit: every request succeeded,
// the p99 (from the scheduled arrival) is supported and within limit,
// and completions kept pace with the offered load — the requests still
// outstanding when the window closed are no more than the load offered
// during one limit interval, so no backlog built up.
func meetsLimit(s stepResult, limit time.Duration) bool {
	if s.failed > 0 || !s.p99ok || s.p99ms > float64(limit)/float64(time.Millisecond) {
		return false
	}
	return float64(s.issued-s.completed) <= s.rate*limit.Seconds()+1
}

// ladder searches for the highest offered rate meeting the limit in at
// most maxSteps steps, starting above floor, a rate known to meet it (0
// if none is). The coarse ladder offers floor+step, floor+2*step, ... and
// stops at the first step that fails; then up to refine bisection steps,
// as many as the step budget leaves, probe between the last passing rate
// (or floor) and the first failing one. It returns the highest ladder
// rate that met the limit (0 if none did) and the rates tried, in order.
func ladder(floor, step float64, maxSteps, refine int, run func(rate float64) bool) (best float64, tried []float64) {
	failAt := 0.0
	for len(tried) < maxSteps {
		r := floor + float64(len(tried)+1)*step
		tried = append(tried, r)
		if !run(r) {
			failAt = r
			break
		}
		best = r
	}
	if failAt == 0 {
		return best, tried
	}
	lo, hi := max(best, floor), failAt
	for i := 0; i < refine && len(tried) < maxSteps; i++ {
		mid := (lo + hi) / 2
		tried = append(tried, mid)
		if run(mid) {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best, tried
}

// sample is one latency observation and when it happened, relative to
// the start of its phase: the scheduled arrival of an open-loop read, so
// each sub-window holds the reads offered in it however late they
// finish, and the completion of a closed-loop transaction.
type sample struct {
	at time.Duration
	ms float64
}

// sortedValues returns the latencies of samples, sorted.
func sortedValues(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].ms
	}
	sort.Float64s(out)
	return out
}

// split buckets samples by time into k equal sub-windows of span;
// samples after span fall into the last one. Each bucket is sorted.
func split(s []sample, span time.Duration, k int) [][]float64 {
	out := make([][]float64, k)
	for _, x := range s {
		i := int(int64(x.at) * int64(k) / int64(span))
		if i >= k {
			i = k - 1
		}
		if i < 0 {
			i = 0
		}
		out[i] = append(out[i], x.ms)
	}
	for _, b := range out {
		sort.Float64s(b)
	}
	return out
}

// windowedPercentile is the median over k sub-windows of span of each
// sub-window's p-th percentile: one burst of outside noise moves one
// sub-window, not the result. ok reports whether every sub-window's
// sample supports the percentile.
func windowedPercentile(s []sample, span time.Duration, k int, p float64) (float64, bool) {
	var per []float64
	ok := true
	for _, b := range split(s, span, k) {
		v, supported := percentile(b, p)
		ok = ok && supported
		per = append(per, v)
	}
	return median(per), ok
}

// windowedRate is the median over k sub-windows of span of completions
// per second.
func windowedRate(s []sample, span time.Duration, k int) float64 {
	per := make([]float64, k)
	for i, b := range split(s, span, k) {
		per[i] = float64(len(b)) / (span.Seconds() / float64(k))
	}
	return median(per)
}

// crossing estimates the rate at which the p99 reaches the limit, by
// linear interpolation between a step that met the limit and the next
// higher step that did not, clamped to the two rates. The ladder's steps
// alone would quantize the result to their spacing. A failing step whose
// p99 is within the limit failed on backlog or errors; the passing rate
// stands.
func crossing(pass, fail stepResult, limit time.Duration) float64 {
	lim := float64(limit) / float64(time.Millisecond)
	if fail.p99ms <= lim || fail.p99ms <= pass.p99ms {
		return pass.rate
	}
	r := pass.rate + (fail.rate-pass.rate)*(lim-pass.p99ms)/(fail.p99ms-pass.p99ms)
	return min(max(r, pass.rate), fail.rate)
}
