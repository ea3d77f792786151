package main

import (
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{0.5, 9, 2.25, 7, 1}, 0.75, 2.25, 8},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children's
// overlapping coverage once, and ignores the part of a child outside it.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 50 * ms},     // overlaps a
		{name: "late", parent: 0, start: 90 * ms, end: 130 * ms}, // outlives the request
		{name: "leaf", parent: 1, start: 15 * ms, end: 20 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 25 * ms, 20 * ms, 40 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}
