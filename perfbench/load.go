package main

import (
	"context"
	"sync"
	"time"
)

// feed hands out a workload's requests in stream order to concurrent
// clients.
type feed struct {
	mu sync.Mutex
	s  *stream
	h  *harness
}

func (f *feed) next() request {
	f.mu.Lock()
	it := f.s.next()
	f.mu.Unlock()
	return f.h.request(it)
}

// closedLoop runs clients that each send their next request when the
// previous one completes, until d has passed. It returns every outcome
// and the phase's wall time.
func closedLoop(ctx context.Context, h *harness, f *feed, clients int, d time.Duration, onDone func(outcome)) ([]outcome, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				o := h.do(ctx, f.next())
				if onDone != nil {
					onDone(o)
				}
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// openPhase sends n requests at a fixed rate whatever the server does,
// each timed from its due time, and returns the outcomes and how late
// the sender fired each one.
func openPhase(ctx context.Context, h *harness, f *feed, rate float64, n int) ([]outcome, []time.Duration) {
	due := make([]time.Duration, n)
	reqs := make([]request, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		reqs[i] = f.next()
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	late := openLoop(realClock{}, time.Now(), due, func(i int, at time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = h.doAt(ctx, reqs[i], at)
		}()
	})
	wg.Wait()
	return outs, late
}
