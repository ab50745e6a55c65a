package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 50, want: 50, ok: true},
		{n: 101, p: 50, want: 51, ok: true},
		{n: 1000, p: 99, want: 990, ok: true}, // exactly 10 samples beyond
		{n: 999, p: 99, want: 990, ok: false}, // only 9 beyond: unsupported
		{n: 10000, p: 99.9, want: 9990, ok: true},
		{n: 5, p: 50, want: 3, ok: false},
		{n: 1, p: 99, want: 1, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample supports a percentile")
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {20, 50}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestMeetsLimit(t *testing.T) {
	limit := 50 * time.Millisecond
	good := stepResult{rate: 4000, issued: 6000, completed: 5990, p99ms: 30, p99ok: true}
	if !meetsLimit(good, limit) {
		t.Fatal("a step within the limit failed")
	}
	for name, mod := range map[string]func(*stepResult){
		"p99 over limit":    func(s *stepResult) { s.p99ms = 50.5 },
		"p99 unsupported":   func(s *stepResult) { s.p99ok = false },
		"a request failed":  func(s *stepResult) { s.failed = 1 },
		"backlog outgrowth": func(s *stepResult) { s.completed = s.issued - 202 }, // 4000/s * 50ms = 200 allowed
	} {
		s := good
		mod(&s)
		if meetsLimit(s, limit) {
			t.Errorf("%s: step passed", name)
		}
	}
}

func TestLadderStopsAtFirstFailure(t *testing.T) {
	// Non-monotone capacity: 9000 would pass again, but the coarse
	// ladder must stop at the first failing step (7000).
	passes := func(rate float64) bool { return rate <= 6600 || rate == 9000 }
	var calls []float64
	best, tried := ladder(3000, 1000, 10, 2, func(r float64) bool {
		calls = append(calls, r)
		return passes(r)
	})
	want := []float64{4000, 5000, 6000, 7000, 6500, 6750}
	if len(tried) != len(want) {
		t.Fatalf("tried %v, want %v", tried, want)
	}
	for i := range want {
		if tried[i] != want[i] || calls[i] != want[i] {
			t.Fatalf("tried %v, want %v", tried, want)
		}
	}
	if best != 6500 {
		t.Errorf("best = %g, want 6500", best)
	}
}

func TestLadderEdges(t *testing.T) {
	// Never failing within the step budget: no refinement, best is the
	// last step.
	best, tried := ladder(3000, 1000, 3, 2, func(float64) bool { return true })
	if best != 6000 || len(tried) != 3 {
		t.Errorf("all pass: best %g tried %v", best, tried)
	}
	// The step budget cuts refinement short.
	best, tried = ladder(3000, 1000, 4, 2, func(r float64) bool { return r < 7000 })
	if best != 6000 || len(tried) != 4 || tried[3] != 7000 {
		t.Errorf("budget: best %g tried %v", best, tried)
	}
	// First step fails: refinement probes between the floor and it.
	best, tried = ladder(3000, 1000, 5, 2, func(r float64) bool { return r < 3600 })
	if best != 3500 || len(tried) != 3 || tried[1] != 3500 || tried[2] != 3750 {
		t.Errorf("first fails: best %g tried %v", best, tried)
	}
	// No known-good floor: bisection starts from zero.
	best, tried = ladder(0, 1000, 5, 3, func(r float64) bool { return r <= 400 })
	if best != 375 || len(tried) != 4 || tried[1] != 500 || tried[2] != 250 || tried[3] != 375 {
		t.Errorf("no floor: best %g tried %v", best, tried)
	}
}

func TestCrossing(t *testing.T) {
	limit := 50 * time.Millisecond
	pass := stepResult{rate: 4000, p99ms: 30}
	if got := crossing(pass, stepResult{rate: 4500, p99ms: 70}, limit); got != 4250 {
		t.Errorf("midway crossing = %g, want 4250", got)
	}
	// Failed on backlog with a p99 inside the limit: no interpolation.
	if got := crossing(pass, stepResult{rate: 4500, p99ms: 45}, limit); got != 4000 {
		t.Errorf("backlog failure = %g, want 4000", got)
	}
	// A noisy passing p99 above the failing one cannot extrapolate.
	if got := crossing(stepResult{rate: 4000, p99ms: 49}, stepResult{rate: 4500, p99ms: 51}, limit); got != 4250 {
		t.Errorf("near-limit crossing = %g, want 4250", got)
	}
}
