package main

// The fleet sweep (--nodes): measures what N routed wmxmld nodes buy
// over one node for a multi-tenant detect workload. The scaling lever
// is aggregate cache capacity, not CPU count: each node's document
// cache is deliberately small relative to the tenant count (run the
// daemons with --cache well below --fleet-owners), so a single node
// cycling through every tenant's suspect thrashes its cache and reparses
// almost every request, while the same workload consistent-hash-routed
// across the fleet gives each node a resident working set and serves
// warm hits. The sweep reports both phases plus the single-owner warm
// class (the PR7 latency gate), and scaling_x — the aggregate
// throughput ratio the CI gate asserts.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wmxml"
	"wmxml/internal/cluster"
)

// fleetTenant is one owner in the sweep: its credentials, its home
// node, and the marked suspect per target daemon (embedding happens on
// both the fleet and the baseline, which hold separate registries).
type fleetTenant struct {
	id, key        string
	home           string
	marked         []byte // embedded via the fleet
	markedBaseline []byte // embedded via the baseline node
}

func runFleet(nodesCSV, baseline string, ownerCount, requests, concurrency int,
	dataset string, size int, seed int64, gamma int, out string, waitFor time.Duration) error {
	var nodes []string
	for _, n := range strings.Split(nodesCSV, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) < 2 {
		return fmt.Errorf("--nodes needs at least 2 addresses, got %d", len(nodes))
	}
	ring, err := cluster.New(nodes)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	targets := append([]string(nil), nodes...)
	if baseline != "" {
		targets = append(targets, baseline)
	}
	for _, u := range targets {
		if err := waitHealthy(client, u, waitFor); err != nil {
			return err
		}
	}

	// Register every tenant and embed its own distinct document — the
	// working set that must not fit one node's cache but must fit the
	// fleet's. Registration goes through an arbitrary node to exercise
	// the router; the embed goes to the home node directly.
	tenants := make([]*fleetTenant, ownerCount)
	for i := range tenants {
		id := fmt.Sprintf("fleet-%02d", i)
		t := &fleetTenant{id: id, key: "key-" + id, home: ring.Node(id)}
		doc, err := generate(dataset, size, seed+int64(i))
		if err != nil {
			return err
		}
		reg, _ := json.Marshal(wmxml.Owner{ID: id, Key: t.key, Mark: "(C) " + id, Dataset: dataset, Gamma: gamma})
		if _, _, err := post(client, t.key, nodes[i%len(nodes)]+"/v1/owners", reg); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
		if t.marked, _, err = post(client, t.key, t.home+"/v1/embed?owner="+id+"&doc=fleet.xml", doc); err != nil {
			return fmt.Errorf("embed %s: %w", id, err)
		}
		if baseline != "" {
			if _, _, err := post(client, t.key, baseline+"/v1/owners", reg); err != nil {
				return fmt.Errorf("register %s on baseline: %w", id, err)
			}
			if t.markedBaseline, _, err = post(client, t.key, baseline+"/v1/embed?owner="+id+"&doc=fleet.xml", doc); err != nil {
				return fmt.Errorf("embed %s on baseline: %w", id, err)
			}
		}
		tenants[i] = t
	}
	fmt.Fprintf(os.Stderr, "wmload: fleet sweep: %d nodes, %d owners, %d requests/phase, %d workers\n",
		len(nodes), ownerCount, requests, concurrency)

	// Two round-robin warmup passes per phase target, then the measured
	// phase: every request is a detect of tenant (i mod owners)'s own
	// suspect. The baseline sees every tenant through one cache; the
	// fleet phase routes each tenant to its home node. Two passes,
	// because the document cache is scan-resistant: a body seen once
	// waits in a probation segment of cache/8 entries, and it is kept
	// for good only when it is seen again.
	phase := func(pick func(t *fleetTenant) (url string, body []byte)) (time.Duration, []time.Duration, float64, int) {
		for pass := 0; pass < 2; pass++ {
			for _, t := range tenants {
				url, body := pick(t)
				post(client, t.key, url+"/v1/detect?owner="+t.id, body)
			}
		}
		lat := make([]time.Duration, requests)
		var hits, failed atomic.Int64
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= requests {
						return
					}
					t := tenants[i%len(tenants)]
					url, body := pick(t)
					t0 := time.Now()
					resp, _, err := post(client, t.key, url+"/v1/detect?owner="+t.id, body)
					lat[i] = time.Since(t0)
					if err != nil {
						failed.Add(1)
						continue
					}
					var v struct {
						CacheHit bool `json:"cache_hit"`
					}
					if json.Unmarshal(resp, &v) == nil && v.CacheHit {
						hits.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		return wall, lat, float64(hits.Load()) / float64(requests), int(failed.Load())
	}

	var rep benchOutput
	rep.Pkg = "wmxml/cmd/wmload"
	rep.Goos, rep.Goarch = runtime.GOOS, runtime.GOARCH
	addPhase := func(name string, wall time.Duration, lat []time.Duration, hitRatio float64, extra map[string]float64) float64 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		rps := float64(len(lat)) / wall.Seconds()
		m := map[string]float64{
			"p50_ns":          float64(pct(lat, 500)),
			"p90_ns":          float64(pct(lat, 900)),
			"p99_ns":          float64(pct(lat, 990)),
			"p999_ns":         float64(pct(lat, 999)),
			"max_ns":          float64(lat[len(lat)-1]),
			"rps":             rps,
			"cache_hit_ratio": hitRatio,
		}
		for k, v := range extra {
			m[k] = v
		}
		rep.Results = append(rep.Results, benchResult{
			Name:       name,
			Iterations: int64(len(lat)),
			NsPerOp:    float64(sum.Nanoseconds()) / float64(len(lat)),
			Metrics:    m,
		})
		return rps
	}

	var baseRPS float64
	if baseline != "" {
		wall, lat, hits, failed := phase(func(t *fleetTenant) (string, []byte) { return baseline, t.markedBaseline })
		if failed > 0 {
			return fmt.Errorf("baseline phase: %d of %d requests failed", failed, requests)
		}
		baseRPS = addPhase("ServerFleetDetect1", wall, lat, hits, map[string]float64{"nodes": 1, "owners": float64(ownerCount)})
	}

	wall, lat, hits, failed := phase(func(t *fleetTenant) (string, []byte) { return t.home, t.marked })
	if failed > 0 {
		return fmt.Errorf("fleet phase: %d of %d requests failed", failed, requests)
	}
	extra := map[string]float64{"nodes": float64(len(nodes)), "owners": float64(ownerCount)}
	fleetRPS := addPhase("ServerFleetDetectN", wall, lat, hits, nil)
	if baseRPS > 0 {
		extra["scaling_x"] = fleetRPS / baseRPS
	}
	for k, v := range extra {
		rep.Results[len(rep.Results)-1].Metrics[k] = v
	}

	// Single-owner warm latency on its home node — the class the PR7
	// p50 gate carries forward: routing must not cost the single-tenant
	// hot path its budget.
	warm := tenants[0]
	post(client, warm.key, warm.home+"/v1/detect?owner="+warm.id, warm.marked)
	wlat := make([]time.Duration, 60)
	for i := range wlat {
		t0 := time.Now()
		if _, _, err := post(client, warm.key, warm.home+"/v1/detect?owner="+warm.id, warm.marked); err != nil {
			return fmt.Errorf("warm single: %w", err)
		}
		wlat[i] = time.Since(t0)
	}
	var wsum time.Duration
	for _, d := range wlat {
		wsum += d
	}
	wwall := wsum
	addPhase("ServerFleetWarmSingle", wwall, wlat, 1, map[string]float64{"nodes": float64(len(nodes))})

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wmload: wrote %s\n", out)
	}
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "  %-22s n=%-5d p50=%-10s rps=%-8.1f hit=%.2f scale=%.2fx\n",
			r.Name, r.Iterations, time.Duration(r.Metrics["p50_ns"]), r.Metrics["rps"],
			r.Metrics["cache_hit_ratio"], r.Metrics["scaling_x"])
	}
	return nil
}

// waitHealthy blocks until a daemon's /healthz answers 200.
func waitHealthy(client *http.Client, url string, waitFor time.Duration) error {
	deadline := time.Now().Add(waitFor)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy within %s", url, waitFor)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
