package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 therefore needs at least 1000 samples, and a median at least 20.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses when fewer than minTail samples lie beyond the selected
// rank, because such a percentile is decided by a handful of requests.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minTail)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[rank-1], nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed interval of the traced run. Start and End are
// offsets from the run's epoch; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    string        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is the part of parent's interval that none of its children
// cover: children are clipped to the parent and overlaps count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// clock abstracts time for the open-loop sender so tests can stall it.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop fires request i at start+due[i] whatever happened to earlier
// requests, and returns how late each fire was. fire receives the due
// time: latency measured from it charges any sender stall to the
// requests queued behind the stall, as their users would see it.
func openLoop(c clock, start time.Time, due []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(due))
	for i, d := range due {
		at := start.Add(d)
		c.SleepUntil(at)
		late[i] = max(c.Now().Sub(at), 0)
		fire(i, at)
	}
	return late
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
