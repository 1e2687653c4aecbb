// Command perfbench is WmXML's benchmark: it serves the real wmxmld
// handler on loopback listeners in this process, drives one workload
// against it, checks every response against ground truth, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON line. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Run shape. The phases split --seconds; setup runs setupReps times and
// setup_s is their median. After the warm-up, rounds pairs of closed-
// and open-loop segments share the rest, so both loops sample the whole
// run. ops_per_s is the closed loop's throughput over all its segments:
// a segment holds only a few collections of dispute-cold's heap,
// so per-segment rates fall into two modes and their median would jump
// between them. The open loop's share keeps at least 1000 samples for
// p99 at 60/s.
const (
	warmShare   = 0.06
	closedShare = 0.45
	openShare   = 0.49
	rounds      = 9
	setupReps   = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: dispute-warm or dispute-cold")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 50, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1:", err)
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*secs)*time.Second, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed int64, secs time.Duration, traced bool, dir string) (*result, error) {
	conns := runtime.NumCPU()
	meta := runMeta(w, seed, secs, conns)
	for _, k := range sortedKeys(meta) {
		fmt.Fprintf(os.Stderr, "meta %s=%v\n", k, meta[k])
	}
	if traced {
		return runTraced(ctx, w, seed, secs, dir, conns, meta)
	}
	return runUntraced(ctx, w, seed, secs, dir, conns)
}

// setupMedian sets the workload up setupReps times, each from scratch,
// and keeps the last; it returns the median set-up time.
func setupMedian(ctx context.Context, w workload, seed int64, dir string, conns int) (*harness, float64, error) {
	var times []float64
	var h *harness
	for rep := 0; rep < setupReps; rep++ {
		if h != nil {
			h.close()
		}
		rdir := filepath.Join(dir, strconv.Itoa(rep))
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			return nil, 0, err
		}
		runtime.GC()
		start := time.Now()
		var err error
		h, err = setup(ctx, w, seed, rdir, conns)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	s := slices.Clone(times)
	slices.Sort(s)
	fmt.Fprintf(os.Stderr, "setup seconds %v\n", times)
	return h, s[len(s)/2], nil
}

func runUntraced(ctx context.Context, w workload, seed int64, secs time.Duration, dir string, conns int) (*result, error) {
	h, setupS, err := setupMedian(ctx, w, seed, dir, conns)
	if err != nil {
		return nil, err
	}
	defer h.close()
	f := &feed{s: newStream(w.mix, h.c, seed), h: h}

	warm, _ := closedLoop(ctx, h, f, h.conns, time.Duration(float64(secs)*warmShare), nil)
	var closed, open []outcome
	var late []time.Duration
	var rates []float64
	var closedT time.Duration
	for r := 0; r < rounds; r++ {
		c, elapsed := closedLoop(ctx, h, f, h.conns, time.Duration(float64(secs)*closedShare/rounds), nil)
		closed, closedT = append(closed, c...), closedT+elapsed
		rates = append(rates, float64(len(c))/elapsed.Seconds())
		o, l := openPhase(ctx, h, f, w.rate, int(w.rate*secs.Seconds()*openShare/rounds))
		open, late = append(open, o...), append(late, l...)
	}

	lat := make([]float64, 0, len(open))
	var traceLat []float64
	inSLO := 0
	for _, o := range open {
		l := ms(o.latency())
		lat = append(lat, l)
		if o.kind == kTrace {
			traceLat = append(traceLat, l)
		}
		if o.err == nil && o.latency() <= w.limit {
			inSLO++
		}
	}
	var t tally
	t.warm(warm)
	t.add(closed, open)
	if err := h.checkSplices(); err != nil {
		t.fail(err)
	}

	m := map[string]metric{
		"setup_s":     {setupS, "s"},
		"ops_per_s":   {float64(len(closed)) / closedT.Seconds(), "ops/s"},
		"slo_ratio":   {float64(inSLO) / float64(len(open)), "fraction"},
		"rss_peak_mb": {peakRSSMiB(), "MiB"},
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}} {
		v, err := quantile(lat, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = metric{v, "ms"}
	}
	lateP99, _ := quantile(durationsMS(late), 0.99)
	fmt.Fprintf(os.Stderr, "samples closed=%d open=%d; closed-loop ops/s per round %.1f; sender late p99 %.3f ms\n", len(closed), len(open), rates, lateP99)
	// trace_p50_ms applies to dispute-warm's mix alone, so it is printed
	// here and kept out of the result line; embed_p50_ms belongs to the
	// publish workload, which this benchmark does not run.
	if v, err := quantile(traceLat, 0.5); err == nil {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f ms (%d samples)\n", "trace_p50_ms", v, len(traceLat))
	} else {
		fmt.Fprintf(os.Stderr, "%-34s %14s    (no traces in this workload's mix)\n", "trace_p50_ms", "n/a")
	}
	fmt.Fprintf(os.Stderr, "%-34s %14s    (publish only; not in this benchmark)\n", "embed_p50_ms", "n/a")
	return t.result(m), nil
}

// tally counts the measured operations and the failed ones. Warm-up
// answers are checked too: a wrong one fails the run without counting
// as a measured operation.
type tally struct {
	attempted, failed int
	warmFailed        bool
	first             error
}

func (t *tally) add(sets ...[]outcome) {
	for _, set := range sets {
		for _, o := range set {
			t.attempted++
			if o.err != nil {
				t.fail(o.err)
			}
		}
	}
}

func (t *tally) warm(outs []outcome) {
	for _, o := range outs {
		if o.err != nil {
			t.warmFailed = true
			t.note(o.err)
		}
	}
}

// fail counts one failed operation: a request, or the splice check.
func (t *tally) fail(err error) {
	t.failed++
	t.note(err)
}

func (t *tally) note(err error) {
	if t.first == nil {
		t.first = err
	}
}

// result prints the metrics table and error_ratio, and builds the
// result line.
func (t *tally) result(m map[string]metric) *result {
	if t.first != nil {
		fmt.Fprintln(os.Stderr, "first failure:", t.first)
	}
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", "error_ratio", float64(t.failed)/float64(max(t.attempted, 1)), "fraction")
	return &result{Correct: t.failed == 0 && !t.warmFailed, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: m}
}

func durationsMS(ds []time.Duration) []float64 {
	l := make([]float64, len(ds))
	for i, d := range ds {
		l[i] = ms(d)
	}
	return l
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runMeta records what a reader needs to compare two runs.
func runMeta(w workload, seed int64, secs time.Duration, conns int) map[string]any {
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": secs.Seconds(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"git_commit": gitCommit(), "client_conns": conns,
		"rate_per_s": w.rate, "limit_ms": ms(w.limit), "registry": "memory",
		"dataset": dataset, "records": records, "gamma": gamma, "owners": numOwners,
		"recipients_per_owner": recipients, "embeds_per_owner": embeds, "alteration": alteration,
		"setup_reps":   setupReps,
		"phase_shares": fmt.Sprintf("warm %.2f, then %d rounds of closed %.3f and open %.3f", warmShare, rounds, closedShare/rounds, openShare/rounds),
	}
}

// gitCommit reads the checkout's HEAD without running git; a source
// tree that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(l, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown"
}
