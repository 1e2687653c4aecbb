package main

import (
	"slices"
	"testing"
	"time"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	if v, err := quantile(samples, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := quantile(samples, 0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	if _, err := quantile(samples[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := quantile(samples[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := quantile(samples[:20], 0.5); err != nil || v != 990 {
		t.Fatalf("median of 1000..981 = %v, %v; want 990", v, err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("a quantile of no samples must be refused")
	}
}

// fakeClock advances only when the sender sleeps or a send stalls.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	start := time.Unix(0, 0)
	c := &fakeClock{now: start}
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	// Request 0 blocks the sender for 45ms; every request completes the
	// instant it is sent, so latency is lateness alone.
	lat := make([]time.Duration, len(due))
	late := openLoop(c, start, due, func(i int, at time.Time) {
		if i == 0 {
			c.now = c.now.Add(45 * time.Millisecond)
		}
		lat[i] = c.now.Sub(at)
	})
	wantLate := []time.Duration{0, 35, 25, 15, 5, 0, 0, 0}
	for i := range wantLate {
		wantLate[i] *= time.Millisecond
	}
	if !slices.Equal(late, wantLate) {
		t.Fatalf("late = %v, want %v", late, wantLate)
	}
	// Measured from the due time, the stall shows in the requests queued
	// behind it; measured from the send it would vanish.
	if lat[0] != 45*time.Millisecond || lat[1] != 35*time.Millisecond || lat[4] != 5*time.Millisecond || lat[5] != 0 {
		t.Fatalf("latencies from due time = %v", lat)
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []span{{Start: 10 * ms, End: 20 * ms}, {Start: 40 * ms, End: 70 * ms}}, 60 * ms},
		{"overlapping count once", []span{{Start: 10 * ms, End: 30 * ms}, {Start: 20 * ms, End: 50 * ms}}, 60 * ms},
		{"clipped to the parent", []span{{Start: 90 * ms, End: 120 * ms}, {Start: -5 * ms, End: 5 * ms}}, 85 * ms},
		{"nested inside a sibling", []span{{Start: 10 * ms, End: 60 * ms}, {Start: 20 * ms, End: 30 * ms}}, 50 * ms},
		{"fully covered", []span{{Start: 0, End: 100 * ms}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}
