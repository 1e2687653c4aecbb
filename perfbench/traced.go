package main

// The traced run: the same server and stream as the untraced run, plus
// serial replays of a fixed sample at three depths (loopback client,
// in-process ServeHTTP, public library calls), each span tagged with the
// request id, and layer counters read from /metrics around the loads.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wmxml"
)

const (
	mixSample   = 48 // stream items replayed at every depth
	classSample = 24 // replayed requests per class, topped up outside the mix
)

// tracer keeps the traced run's spans in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // the traced closed loop adds spans from every client
	spans []span
}

// begin opens a span; end closes it.
func (t *tracer) begin(name, req string, parent int) int {
	return t.add(name, req, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.epoch)
	t.mu.Unlock()
}

// call records fn as a child span of parent.
func (t *tracer) call(parent int, name string, fn func() error) error {
	t.mu.Lock()
	req := t.spans[parent-1].Req
	t.mu.Unlock()
	id := t.begin(name, req, parent)
	err := fn()
	t.end(id)
	return err
}

// add records an interval measured elsewhere; a zero to leaves it open.
func (t *tracer) add(name, req string, parent int, from, to time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: from.Sub(t.epoch)}
	if !to.IsZero() {
		s.End = to.Sub(t.epoch)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// children returns the direct children of span id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// durationsUnder collects the durations (ms) of the spans named name
// whose parent is a root span named root.
func (t *tracer) durationsUnder(root, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent != 0 && t.spans[s.Parent-1].Name == root {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// overheadPairs is how many adjacent untraced/traced closed-loop
// segment pairs price trace.overhead_ratio; it is their median ratio.
const overheadPairs = 3

// replayed is one sample request's timings at the three depths.
type replayed struct {
	kind     kind
	mix      bool
	loopback time.Duration
	handler  time.Duration
	covered  time.Duration // library call spans under the library root
}

func runTraced(ctx context.Context, w workload, seed int64, secs time.Duration, dir string, conns int, meta map[string]any) (*result, error) {
	h, err := setup(ctx, w, seed, dir, conns)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer h.close()
	tr := &tracer{epoch: time.Now()}
	f := &feed{s: newStream(w.mix, h.c, seed), h: h}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var t tally

	// Loads: closed-loop segments alternately without and with a span per
	// request, then the open loop.
	before, err := h.scrape()
	if err != nil {
		return nil, err
	}
	warm, _ := closedLoop(ctx, h, f, h.conns, time.Duration(float64(secs)*0.04), nil)
	seg := time.Duration(float64(secs) * 0.24 / (2 * overheadPairs))
	var plain, traced []outcome
	var plainRT runtimeSample
	var overhead []float64
	for r := 0; r < overheadPairs; r++ {
		rt0 := readRuntime()
		p, pT := closedLoop(ctx, h, f, h.conns, seg, nil)
		plainRT = plainRT.plus(readRuntime().minus(rt0))
		q, qT := closedLoop(ctx, h, f, h.conns, seg, func(o outcome) {
			tr.add("load", o.requestID, 0, o.due, o.done)
		})
		plain, traced = append(plain, p...), append(traced, q...)
		overhead = append(overhead, (float64(len(q))/qT.Seconds())/(float64(len(p))/pT.Seconds()))
	}
	open, late := openPhase(ctx, h, f, w.rate, int(w.rate*secs.Seconds()*openShare))
	after, err := h.scrape()
	if err != nil {
		return nil, err
	}
	t.warm(warm)
	t.add(plain, traced, open)
	loadOps := float64(len(plain) + len(traced) + len(open))
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := delta("wmxmld_doc_cache_hits_total"), delta("wmxmld_doc_cache_misses_total")
	coalesced := delta("wmxmld_doc_cache_coalesced_total")
	put("server.doc_cache_hit_ratio", ratio(hits+coalesced, hits+misses+coalesced), "fraction")
	put("server.doc_cache_evictions_per_op", delta("wmxmld_doc_cache_evictions_total")/loadOps, "count")
	ph, pm := delta("wmxmld_plan_cache_hits_total"), delta("wmxmld_plan_cache_misses_total")
	put("server.plan_cache_hit_ratio", ratio(ph, ph+pm), "fraction")
	slices.Sort(overhead)
	put("trace.overhead_ratio", overhead[overheadPairs/2], "ratio")
	put("runtime.gc_cpu_fraction", ratio(plainRT.gcCPU, plainRT.totalCPU), "fraction")
	put("runtime.alloc_bytes_per_op", plainRT.allocBytes/float64(max(len(plain), 1)), "bytes")
	var in, out float64
	var openLat []float64
	for _, set := range [][]outcome{plain, traced, open} {
		for _, o := range set {
			in += float64(o.bytesIn)
			out += float64(o.bytesOut)
		}
	}
	for _, o := range open {
		openLat = append(openLat, ms(o.latency()))
	}
	put("serve.bytes_in_per_op", in/loadOps, "bytes")
	put("serve.bytes_out_per_op", out/loadOps, "bytes")
	lateP99, err := quantile(durationsMS(late), 0.99)
	if err != nil {
		return nil, fmt.Errorf("loadgen.late_ms: %w", err)
	}
	put("loadgen.late_ms", lateP99, "ms")

	// Serial replays at three depths.
	l, err := newLib(h, tr)
	if err != nil {
		return nil, err
	}
	defer l.scratch.Close()
	sample := h.sample()
	// Reads before the replays write: a replayed embed adds a receipt
	// for content the detect checks expect under their own receipts.
	allocs, allocBytes, err := h.detectAllocs(sample)
	if err != nil {
		return nil, err
	}
	put("server.allocs_per_op", allocs, "count")
	put("server.alloc_bytes_per_op", allocBytes, "bytes")
	hop, err := h.hop(ctx, sample)
	if err != nil {
		return nil, err
	}
	put("cluster.hop_ms", hop, "ms")
	reps, receiptsTried, err := h.replaySample(ctx, l, tr, sample, &t)
	if err != nil {
		return nil, err
	}

	var transport, serverSelf, loop []float64
	var handlerSum, coveredSum time.Duration
	perClass := map[string][]float64{}
	for _, rp := range reps {
		handlerSum += rp.handler
		coveredSum += rp.covered
		class := rp.kind.String()
		if class == "plan" {
			class = "embed" // whole-document writes, as embed_p50_ms
		}
		perClass[class] = append(perClass[class], ms(rp.handler))
		if rp.mix {
			transport = append(transport, ms(rp.loopback-rp.handler))
			serverSelf = append(serverSelf, ms(rp.handler-rp.covered))
			loop = append(loop, ms(rp.loopback))
		}
	}
	med := func(name string, samples []float64, unit string) error {
		v, err := quantile(samples, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		put(name, v, unit)
		return nil
	}
	openP50, err := quantile(openLat, 0.5)
	if err != nil {
		return nil, err
	}
	loopP50, err := quantile(loop, 0.5)
	if err != nil {
		return nil, err
	}
	put("serve.wait_ms", openP50-loopP50, "ms")
	put("server.coverage", ratio(float64(coveredSum), float64(handlerSum)), "fraction")
	put("core.receipts_tried", receiptsTried, "count")
	for _, e := range []struct {
		name    string
		samples []float64
	}{
		{"serve.transport_ms", transport},
		{"server.self_ms", serverSelf},
		{"server.detect_ms", perClass["detect"]},
		{"server.trace_ms", perClass["trace"]},
		{"server.embed_ms", perClass["embed"]},
		{"server.deliver_ms", perClass["deliver"]},
	} {
		if err := med(e.name, e.samples, "ms"); err != nil {
			return nil, err
		}
	}

	// Every library metric comes from the micro pass alone, one fixed
	// population per layer; the handler-order replay above gives only
	// server.coverage and server.self_ms.
	if err := l.micro(ctx); err != nil {
		return nil, err
	}
	for name, span := range libraryMetrics {
		if err := med(name, tr.durationsUnder("micro", span), "ms"); err != nil {
			return nil, err
		}
	}
	pipeSelf, err := l.pipelineSelf(ctx)
	if err != nil {
		return nil, err
	}
	if err := med("pipeline.self_ms", pipeSelf, "ms"); err != nil {
		return nil, err
	}
	addMS, perReceipt, err := l.fileAppends()
	if err != nil {
		return nil, err
	}
	if err := med("registry.add_receipt_ms", addMS, "ms"); err != nil {
		return nil, err
	}
	put("registry.bytes_per_receipt", perReceipt, "bytes")

	if err := h.checkSplices(); err != nil {
		t.fail(err)
	}
	printSelfTimes(tr, reps)
	if err := writeSpans(tr, meta); err != nil {
		return nil, err
	}
	return t.result(m), nil
}

// replaySample replays every sample request serially at the three
// depths and returns their timings, with the mean receipts_tried of the
// sample's detects: over a fixed sample, it repeats exactly.
func (h *harness) replaySample(ctx context.Context, l *lib, tr *tracer, sample []sampled, t *tally) ([]replayed, float64, error) {
	var reps []replayed
	var tried, detects float64
	for i, s := range sample {
		req := fmt.Sprintf("sample-%03d", i)
		rp := replayed{mix: s.mix, kind: s.it.Kind}
		for depth := 0; depth < 3; depth++ {
			r := h.replayRequest(s, depth)
			switch depth {
			case 0:
				o := h.do(ctx, r)
				t.add([]outcome{o})
				tr.add("loopback", req, 0, o.due, o.done)
				rp.loopback = o.latency()
				if r.it.Kind == kDetect && o.err == nil {
					tried += float64(o.tried)
					detects++
				}
			case 1:
				from, to, err := h.inProcess(r)
				t.add([]outcome{{err: err}})
				tr.add("handler", req, 0, from, to)
				rp.handler = to.Sub(from)
			case 2:
				if err := l.prepare(r); err != nil {
					return nil, 0, err
				}
				root := tr.begin("library", req, 0)
				if err := l.chain(root, r); err != nil {
					return nil, 0, fmt.Errorf("library replay of %s: %w", r.it.Kind, err)
				}
				tr.end(root)
				for _, c := range tr.children(root) {
					rp.covered += c.dur()
				}
			}
		}
		reps = append(reps, rp)
	}
	if detects == 0 {
		return reps, 0, nil
	}
	return reps, tried / detects, nil
}

// libraryMetrics maps each library-layer metric to the micro-pass span
// it is the median of.
var libraryMetrics = map[string]string{
	"registry.get_owner_ms":     "registry.get_owner",
	"registry.list_receipts_ms": "registry.list_receipts",
	"server.hash_ms":            "server.hash",
	"core.decode_ms":            "core.decode",
	"core.plan_compile_ms":      "core.plan_compile",
	"core.embed_ms":             "core.embed",
	"xmltree.parse_ms":          "xmltree.parse",
	"xmltree.serialize_ms":      "xmltree.serialize",
	"index.build_ms":            "index.build",
	"fingerprint.trace_ms":      "fingerprint.trace",
	"deliver.compile_ms":        "deliver.compile",
	"deliver.splice_ms":         "deliver.splice",
}

// sampled is one request of the fixed replay sample.
type sampled struct {
	it  item
	mix bool // drawn from the workload's stream, not a class top-up
}

// sample is the fixed replay set: the first mixSample items of a fresh
// stream, then requests of every class topped up to classSample.
func (h *harness) sample() []sampled {
	s := newStream(h.w.mix, h.c, h.c.seed+1)
	var out []sampled
	count := map[kind]int{}
	for i := 0; i < mixSample; i++ {
		it := s.next()
		out = append(out, sampled{it: it, mix: true})
		count[it.Kind]++
	}
	for k := kDetect; k < numKinds; k++ {
		for i := count[k]; i < classSample; i++ {
			o := i % numOwners
			it := item{Kind: k, Owner: o, Doc: (i / numOwners) % embeds, Seq: i}
			if k == kTrace {
				it.Doc = h.c.leak[o]
			}
			out = append(out, sampled{it: it})
		}
	}
	return out
}

// replayRequest builds the sample request for one depth. A stream
// item goes out as the workload sends it, so a cold suspect gets a body
// unique to the depth and every depth sees it cold. Top-ups of the
// write classes, which the mixes never send, are new to the server at
// every depth too.
func (h *harness) replayRequest(s sampled, depth int) request {
	it := s.it
	it.Seq += 3_000_000 + depth*100_000
	o := it.Owner
	spec := h.c.owners[o]
	tail := comment(fmt.Sprintf("replay-%s", it.Kind), it.Seq)
	switch it.Kind {
	case kEmbed:
		return request{it: it, path: fmt.Sprintf("/v1/embed?owner=%s&doc=r%d", spec.ID, it.Seq), key: spec.Key, body: h.c.embedded[o][it.Doc], tail: tail, check: wantMarked}
	case kPlan:
		// The parser drops the comment, so the digest is the original's.
		original := h.c.embedded[o][it.Doc]
		return request{it: it, path: fmt.Sprintf("/v1/deliver/plan?owner=%s&doc=r%d", spec.ID, it.Seq), key: spec.Key, body: original, tail: tail, check: wantDigest(sha256Hex(original))}
	case kDeliver:
		rid := fmt.Sprintf("replay%d", it.Seq)
		return request{it: it, path: deliverPath(spec.ID, h.digests[o], rid), key: spec.Key, check: wantCopy(rid)}
	default:
		return h.request(it)
	}
}

// inProcess runs r through the node's handler without a network.
func (h *harness) inProcess(r request) (time.Time, time.Time, error) {
	hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(append(append([]byte(nil), r.body...), r.tail...)))
	if r.key != "" {
		hr.Header.Set("Authorization", "Bearer "+r.key)
	}
	rec := httptest.NewRecorder()
	from := time.Now()
	h.nodes[r.node].h.ServeHTTP(rec, hr)
	to := time.Now()
	return from, to, r.check(&response{status: rec.Code, hdr: rec.Header(), body: rec.Body.Bytes()})
}

// homes maps each owner to the node whose cache serves it.
func (h *harness) homes(ctx context.Context) ([]int, error) {
	home := make([]int, numOwners)
	for o, spec := range h.c.owners {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.nodes[0].url+"/v1/owners/"+spec.ID+"/recipients", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+spec.Key)
		resp, err := h.client.Do(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		for i, n := range h.nodes {
			if n.url == resp.Header.Get("X-Wmxml-Node") {
				home[o] = i
			}
		}
	}
	return home, nil
}

// scrape sums the counters of every node's /metrics.
func (h *harness) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range h.nodes {
		resp, err := h.client.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocBytes + b.allocBytes}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// detectAllocs runs the sample's detects through the handler in process,
// serially, and reports allocations per request from the MemStats delta.
func (h *harness) detectAllocs(sample []sampled) (float64, float64, error) {
	var reqs []request
	for _, s := range sample {
		if s.it.Kind == kDetect {
			reqs = append(reqs, h.replayRequest(s, 3))
		}
	}
	for _, r := range reqs { // first pass: fill caches where the workload's bodies repeat
		if _, _, err := h.inProcess(r); err != nil {
			return 0, 0, err
		}
	}
	var fresh []request // a second, depth-unique set: cold bodies stay cold
	for _, s := range sample {
		if s.it.Kind == kDetect {
			fresh = append(fresh, h.replayRequest(s, 4))
		}
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, r := range fresh {
		if _, _, err := h.inProcess(r); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	n := float64(len(fresh))
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n, nil
}

// hop is the serial p50 of the sample's detects entering at the owner's
// non-home node minus entering at its home node, on a probe pair of
// nodes over the workload's registry.
func (h *harness) hop(ctx context.Context, sample []sampled) (float64, error) {
	pair, err := startNodes(2, h.store)
	if err != nil {
		return 0, err
	}
	single := h.nodes
	h.nodes = pair // nothing else runs now; restored before return
	defer func() {
		h.nodes = single
		stopNodes(pair)
	}()
	home, err := h.homes(ctx)
	if err != nil {
		return 0, err
	}
	var direct, routed []float64
	for pass := 0; pass < 2; pass++ { // pass 0 warms the home cache
		for _, s := range sample {
			if s.it.Kind != kDetect {
				continue
			}
			r := h.replayRequest(s, 5)
			r.tail = nil
			r.node = home[r.it.Owner]
			a := h.do(ctx, r)
			r.node = (home[r.it.Owner] + 1) % len(h.nodes)
			b := h.do(ctx, r)
			if err := errors.Join(a.err, b.err); err != nil {
				return 0, err
			}
			if pass == 1 {
				direct = append(direct, ms(a.latency()))
				routed = append(routed, ms(b.latency()))
			}
		}
	}
	d, err := quantile(direct, 0.5)
	if err != nil {
		return 0, err
	}
	r, err := quantile(routed, 0.5)
	return r - d, err
}

// printSelfTimes prints per-layer self time and coverage to stderr.
func printSelfTimes(tr *tracer, reps []replayed) {
	var loop, handler, covered time.Duration
	for _, rp := range reps {
		loop += rp.loopback
		handler += rp.handler
		covered += rp.covered
	}
	self := map[string]time.Duration{}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Req, "sample-") && (s.Parent != 0 || s.Name == "library") {
			self[s.Name] += selfTime(s, tr.children(s.ID))
		}
	}
	n := float64(len(reps))
	fmt.Fprintf(os.Stderr, "self time per sample request (%d requests), share of loopback time:\n", len(reps))
	fmt.Fprintf(os.Stderr, "  %-24s %9.4f ms %6.1f%%\n", "serve (transport)", ms(loop-handler)/n, 100*float64(loop-handler)/float64(loop))
	fmt.Fprintf(os.Stderr, "  %-24s %9.4f ms %6.1f%%\n", "server (self)", ms(handler-covered)/n, 100*float64(handler-covered)/float64(loop))
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "  %-24s %9.4f ms %6.1f%%\n", k, ms(self[k])/n, 100*float64(self[k])/float64(loop))
	}
	fmt.Fprintf(os.Stderr, "server.coverage %.4f\n", float64(covered)/float64(handler))
}

// writeSpans writes the run's spans and metadata at the end of the run.
func writeSpans(tr *tracer, meta map[string]any) error {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%v.json", meta["workload"], meta["seed"]))
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// --- the library depth ---

// lib replays requests as the public library calls the handler makes,
// in the handler's order.
type lib struct {
	h       *harness
	tr      *tracer
	sys     []*wmxml.System
	fp      []*wmxml.Fingerprinter
	dl      []*wmxml.Deliverer
	plans   map[string]*wmxml.DetectionPlan // by receipt id
	docs    map[[sha256.Size]byte]parsedDoc // the server's cached suspects
	bound   map[string]boundPlan            // by owner and digest
	scratch wmxml.ReceiptStore              // receipts the replays write
	// delivery is the next deliver replay's bound plan and receipt.
	delivery deliveryState
}

type deliveryState struct {
	b   *wmxml.BoundPlan
	rec *wmxml.EmbedReceipt
	rid string
}

type parsedDoc struct {
	doc *wmxml.Document
	ix  *wmxml.DocumentIndex
}

func newLib(h *harness, tr *tracer) (*lib, error) {
	l := &lib{h: h, tr: tr, plans: map[string]*wmxml.DetectionPlan{}, docs: map[[sha256.Size]byte]parsedDoc{}, bound: map[string]boundPlan{},
		scratch: wmxml.NewMemoryRegistry()}
	for o, spec := range h.c.owners {
		sys, err := h.system(o)
		if err != nil {
			return nil, err
		}
		fp, err := wmxml.NewFingerprinter(h.fingerprintOptions(o))
		if err != nil {
			return nil, err
		}
		dl, err := h.deliverer(o)
		if err != nil {
			return nil, err
		}
		l.sys, l.fp, l.dl = append(l.sys, sys), append(l.fp, fp), append(l.dl, dl)
		if err := l.scratch.PutOwner(wmxml.Owner{ID: spec.ID, Key: spec.Key, Mark: spec.Mark, Gamma: gamma, Dataset: dataset, CreatedUnix: 1}); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// chain replays r as library calls under the span root.
func (l *lib) chain(root int, r request) error {
	o := r.it.Owner
	id := l.h.c.owners[o].ID
	body := append(append([]byte(nil), r.body...), r.tail...)
	t := l.tr
	if err := t.call(root, "registry.get_owner", func() error { _, err := l.h.store.GetOwner(id); return err }); err != nil {
		return err
	}
	switch r.it.Kind {
	case kDetect:
		p, err := l.suspect(root, body, r.tail == nil)
		if err != nil {
			return err
		}
		var recs []wmxml.StoredReceipt
		if err := t.call(root, "registry.list_receipts", func() error { recs, err = l.h.store.ListReceipts(id); return err }); err != nil {
			return err
		}
		for i := len(recs) - 1; i >= 0; i-- {
			plan := l.plans[recs[i].ID]
			var d *wmxml.Detection
			t.call(root, "core.decode", func() error { d = plan.DetectIndexed(p.doc, p.ix); return nil })
			if d.Detected {
				break
			}
		}
	case kTrace:
		var rcs []wmxml.Recipient
		err := t.call(root, "registry.list_recipients", func() error { var err error; rcs, err = l.h.store.ListRecipients(id); return err })
		if err != nil {
			return err
		}
		cands := make([]string, len(rcs))
		for i, rc := range rcs {
			cands[i] = rc.ID
		}
		p, err := l.suspect(root, body, r.tail == nil)
		if err != nil {
			return err
		}
		return t.call(root, "fingerprint.trace", func() error { _, err := l.fp[o].TraceIndexed(p.doc, cands, nil, nil, p.ix); return err })
	case kEmbed:
		var doc *wmxml.Document
		var rec *wmxml.EmbedReceipt
		steps := []struct {
			name string
			fn   func() error
		}{
			{"xmltree.parse", func() (err error) { doc, err = wmxml.ParseXMLBytes(body, wmxml.ParseOptions{}); return err }},
			{"core.embed", func() (err error) { rec, err = l.sys[o].Embed(doc); return err }},
			{"registry.add_receipt", func() error {
				return l.scratch.AddReceipt(wmxml.StoredReceipt{ID: fmt.Sprintf("r-%x", sha256.Sum256(body)), Owner: id, CreatedUnix: 1, Records: rec.Records})
			}},
			{"xmltree.serialize", func() error { var b bytes.Buffer; return wmxml.SerializeXML(&b, doc) }},
		}
		for _, s := range steps {
			if err := t.call(root, s.name, s.fn); err != nil {
				return err
			}
		}
	case kPlan:
		var doc *wmxml.Document
		if err := t.call(root, "xmltree.parse", func() (err error) { doc, err = wmxml.ParseXMLBytes(body, wmxml.ParseOptions{}); return err }); err != nil {
			return err
		}
		return t.call(root, "deliver.compile", func() error { _, _, err := l.dl[o].CompilePlan(doc); return err })
	case kDeliver:
		b, rec, rid := l.delivery.b, l.delivery.rec, l.delivery.rid
		if err := t.call(root, "deliver.splice", func() error { _, err := l.dl[o].Splice(b, nil, rid); return err }); err != nil {
			return err
		}
		if err := t.call(root, "registry.put_recipient", func() error {
			return l.scratch.PutRecipient(wmxml.Recipient{ID: rid, Owner: id, CreatedUnix: 1})
		}); err != nil {
			return err
		}
		return t.call(root, "registry.add_receipt", func() error {
			return l.scratch.AddReceipt(wmxml.StoredReceipt{ID: "d-" + rid, Owner: id, Recipient: rid, CreatedUnix: 1, Records: rec.Records})
		})
	}
	return nil
}

// queryValue returns a query parameter of a request path.
func queryValue(path, key string) string {
	_, q, _ := strings.Cut(path, "?")
	for _, kv := range strings.Split(q, "&") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// suspect hashes body, as the doc cache does, and parses and indexes it
// unless the server holds it cached.
func (l *lib) suspect(root int, body []byte, cached bool) (parsedDoc, error) {
	var sum [sha256.Size]byte
	l.tr.call(root, "server.hash", func() error { sum = sha256.Sum256(body); return nil })
	if p, ok := l.docs[sum]; ok && cached {
		return p, nil
	}
	var p parsedDoc
	err := l.tr.call(root, "xmltree.parse", func() (err error) { p.doc, err = wmxml.ParseXMLBytes(body, wmxml.ParseOptions{}); return err })
	if err != nil {
		return p, err
	}
	l.tr.call(root, "index.build", func() error { p.ix = wmxml.NewDocumentIndex(p.doc); return nil })
	return p, nil
}

// prepare brings the library depth's caches to the state the server's
// are in when the handler replay of r ran just before: the owner's
// receipts all have compiled plans, and a body the workload repeats is
// parsed and indexed. None of it is timed.
func (l *lib) prepare(r request) error {
	o := r.it.Owner
	if r.it.Kind == kDeliver {
		rid := queryValue(r.path, "recipient")
		b, rec, err := l.boundPlan(o, queryValue(r.path, "digest"), rid)
		l.delivery = deliveryState{b, rec, rid}
		return err
	}
	if r.it.Kind != kDetect && r.it.Kind != kTrace {
		return nil
	}
	recs, err := l.h.store.ListReceipts(l.h.c.owners[o].ID)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if _, ok := l.plans[rec.ID]; !ok {
			p, err := l.sys[o].CompileDetection(rec.Records, nil)
			if err != nil {
				return err
			}
			l.plans[rec.ID] = p
		}
	}
	if r.tail != nil {
		return nil
	}
	sum := sha256.Sum256(r.body)
	if _, ok := l.docs[sum]; !ok {
		doc, err := wmxml.ParseXMLBytes(r.body, wmxml.ParseOptions{})
		if err != nil {
			return err
		}
		l.docs[sum] = parsedDoc{doc, wmxml.NewDocumentIndex(doc)}
	}
	return nil
}

// boundPlan returns the bound delivery plan for digest, compiled and
// bound outside the timed chain as the server's plan cache holds it,
// and the receipt the recipient's copy stores.
func (l *lib) boundPlan(o int, digest, rid string) (*wmxml.BoundPlan, *wmxml.EmbedReceipt, error) {
	key := fmt.Sprintf("%d/%s", o, digest)
	c, ok := l.bound[key]
	if !ok {
		original := l.h.c.delivered[o]
		for _, e := range l.h.c.embedded[o] {
			if sha256Hex(e) == digest {
				original = e
			}
		}
		doc, err := wmxml.ParseXMLBytes(original, wmxml.ParseOptions{})
		if err != nil {
			return nil, nil, err
		}
		if c.plan, c.canonical, err = l.dl[o].CompilePlan(doc); err != nil {
			return nil, nil, err
		}
		if c.b, err = l.dl[o].Bind(c.plan, c.canonical); err != nil {
			return nil, nil, err
		}
		l.bound[key] = c
	}
	_, rec, err := l.dl[o].Deliver(c.plan, c.canonical, rid)
	return c.b, rec, err
}

type boundPlan struct {
	b         *wmxml.BoundPlan
	plan      *wmxml.DeliveryPlan
	canonical []byte
}

// microInput is one of the workload's own documents for the library
// measurements that the handler order does not cover on every workload.
type microInput struct {
	owner    int
	marked   []byte // a marked copy
	receipt  string // its receipt id
	original []byte // an unmarked original
	leaked   []byte // a delivered copy to trace
}

func (h *harness) microInputs() []microInput {
	var in []microInput
	for i := 0; i < classSample; i++ {
		o, k := i%numOwners, (i/numOwners)%embeds
		in = append(in, microInput{owner: o, marked: h.marked[o][k], receipt: h.receipts[o][k], original: h.c.embedded[o][k], leaked: h.leaked[o]})
	}
	return in
}

// micro times each library layer on the workload's documents under a
// "micro" root span per document: parse, index, serialize, plan compile,
// decode, embed, delivery compile and splice, trace.
func (l *lib) micro(ctx context.Context) error {
	for i, mi := range l.h.microInputs() {
		root := l.tr.begin("micro", fmt.Sprintf("micro-%03d", i), 0)
		o, id := mi.owner, l.h.c.owners[mi.owner].ID
		var doc, orig, leak *wmxml.Document
		var ix, leakIx *wmxml.DocumentIndex
		var recs []wmxml.StoredReceipt
		var rcs []wmxml.Recipient
		var plan *wmxml.DetectionPlan
		var dplan *wmxml.DeliveryPlan
		var canonical []byte
		var err error
		steps := []struct {
			name string
			fn   func() error
		}{
			{"server.hash", func() error { sha256.Sum256(mi.marked); return nil }},
			{"registry.get_owner", func() error { _, err := l.h.store.GetOwner(id); return err }},
			{"xmltree.parse", func() error { doc, err = wmxml.ParseXMLBytes(mi.marked, wmxml.ParseOptions{}); return err }},
			{"index.build", func() error { ix = wmxml.NewDocumentIndex(doc); return nil }},
			{"xmltree.serialize", func() error { var b bytes.Buffer; return wmxml.SerializeXML(&b, doc) }},
			{"registry.list_receipts", func() error { recs, err = l.h.store.ListReceipts(id); return err }},
			{"core.plan_compile", func() error {
				for _, r := range recs {
					if r.ID == mi.receipt {
						plan, err = l.sys[o].CompileDetection(r.Records, nil)
						return err
					}
				}
				return fmt.Errorf("receipt %s not in the registry", mi.receipt)
			}},
			{"core.decode", func() error {
				if d := plan.DetectIndexed(doc, ix); !d.Detected {
					return errors.New("library decode did not detect a marked copy")
				}
				return nil
			}},
			{"parse.original", func() error { orig, err = wmxml.ParseXMLBytes(mi.original, wmxml.ParseOptions{}); return err }},
			{"deliver.compile", func() error { dplan, canonical, err = l.dl[o].CompilePlan(orig); return err }},
			{"core.embed", func() error { _, err := l.sys[o].Embed(orig); return err }},
			{"deliver.splice", func() error {
				b, err := l.dl[o].Bind(dplan, canonical)
				if err != nil {
					return err
				}
				_, err = l.dl[o].Splice(b, nil, fmt.Sprintf("micro%d", i))
				return err
			}},
			{"parse.leaked", func() error {
				leak, err = wmxml.ParseXMLBytes(mi.leaked, wmxml.ParseOptions{})
				if err == nil {
					leakIx = wmxml.NewDocumentIndex(leak)
				}
				return err
			}},
			{"registry.list_recipients", func() error { rcs, err = l.h.store.ListRecipients(id); return err }},
			{"fingerprint.trace", func() error {
				cands := make([]string, len(rcs))
				for j, rc := range rcs {
					cands[j] = rc.ID
				}
				_, err := l.fp[o].TraceIndexed(leak, cands, nil, nil, leakIx)
				return err
			}},
		}
		for _, s := range steps {
			if err := l.tr.call(root, s.name, s.fn); err != nil {
				return fmt.Errorf("library %s: %w", s.name, err)
			}
		}
		l.tr.end(root)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// pipelineSelf is, per document, one-job Pipeline.DetectBatch minus
// DetectionPlan.DetectIndexed on the same marked copy and receipt. The
// public DetectBatch takes no index or compiled plan, so the difference
// includes building both.
func (l *lib) pipelineSelf(ctx context.Context) ([]float64, error) {
	var out []float64
	for _, mi := range l.h.microInputs() {
		o, id := mi.owner, l.h.c.owners[mi.owner].ID
		doc, err := wmxml.ParseXMLBytes(mi.marked, wmxml.ParseOptions{})
		if err != nil {
			return nil, err
		}
		ix := wmxml.NewDocumentIndex(doc)
		recs, err := l.h.store.ListReceipts(id)
		if err != nil {
			return nil, err
		}
		var records []wmxml.QueryRecord
		for _, r := range recs {
			if r.ID == mi.receipt {
				records = r.Records
			}
		}
		plan, err := l.sys[o].CompileDetection(records, nil)
		if err != nil {
			return nil, err
		}
		pl := wmxml.NewPipeline(l.sys[o], wmxml.PipelineOptions{Workers: 1})
		t0 := time.Now()
		res, err := pl.DetectBatch(ctx, []wmxml.DetectInput{{Doc: doc, Records: records}})
		t1 := time.Now()
		d := plan.DetectIndexed(doc, ix)
		t2 := time.Now()
		if err != nil || res[0].Err != nil || !res[0].Detection.Detected || !d.Detected {
			return nil, fmt.Errorf("pipeline replay did not detect a marked copy: %v", errors.Join(err, res[0].Err))
		}
		out = append(out, ms(t1.Sub(t0)-t2.Sub(t1)))
	}
	return out, nil
}

// fileAppends times classSample File-registry AddReceipt calls with
// fsync, on a scratch log, with the records of one of the workload's
// receipts, and reports the log's growth per receipt.
func (l *lib) fileAppends() ([]float64, float64, error) {
	var src wmxml.StoredReceipt
	for _, spec := range l.h.c.owners {
		if recs, err := l.h.store.ListReceipts(spec.ID); err == nil && len(recs) > 0 {
			src = recs[len(recs)-1]
			break
		}
	}
	path := filepath.Join(l.h.dir, "appends.jsonl")
	store, err := wmxml.OpenFileRegistry(path)
	if err != nil {
		return nil, 0, err
	}
	defer store.Close()
	if err := store.PutOwner(wmxml.Owner{ID: src.Owner, Key: "k", Mark: "m", Dataset: dataset, CreatedUnix: 1}); err != nil {
		return nil, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	size0 := st.Size()
	var out []float64
	for i := 0; i < classSample; i++ {
		rec := src
		rec.ID = fmt.Sprintf("append-%d", i)
		t0 := time.Now()
		if err := store.AddReceipt(rec); err != nil {
			return nil, 0, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	if st, err = os.Stat(path); err != nil {
		return nil, 0, err
	}
	return out, float64(st.Size()-size0) / classSample, nil
}
