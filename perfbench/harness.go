package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"wmxml"
)

// node is one in-process wmxmld handler served on a loopback listener.
type node struct {
	url  string
	h    http.Handler
	srv  *http.Server
	done chan struct{}
}

// startNodes serves n wmxmld handlers over one registry with daemon
// defaults and the access log discarded. With n > 1 they form a fleet:
// the traced run's probe pair for cluster.hop_ms.
func startNodes(n int, store wmxml.ReceiptStore) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		opts := wmxml.ServerOptions{Registry: store, LogWriter: io.Discard, Version: "perfbench"}
		if n > 1 {
			opts.FleetNodes, opts.FleetSelf = urls, urls[i]
		}
		h, err := wmxml.NewServerHandler(opts)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopNodes(nodes[:i])
			return nil, err
		}
		nd := &node{url: urls[i], h: h, srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(nd.done)
			nd.srv.Serve(ln)
		}(lns[i])
		nodes[i] = nd
	}
	return nodes, nil
}

// stopNodes closes the listeners and waits for each serve loop to exit.
func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.srv.Close()
		<-n.done
	}
}

// request is one HTTP request with its ground-truth check.
type request struct {
	it    item
	node  int
	path  string
	key   string
	body  []byte
	tail  []byte // appended to body: a unique trailing comment
	check func(r *response) error
}

type response struct {
	status int
	hdr    http.Header
	body   []byte
}

// outcome is one request's result as the load generator records it.
type outcome struct {
	kind      kind
	due       time.Time // open loop: when it was due; else when it was sent
	done      time.Time
	err       error
	bytesIn   int
	bytesOut  int
	tried     int // detect: receipts_tried
	requestID string
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// harness is a set-up server with its corpus and the setup's products.
type harness struct {
	w      workload
	c      *corpus
	dir    string
	store  wmxml.ReceiptStore
	nodes  []*node
	client *http.Client
	conns  int
	meta   *wmxml.Dataset // the pubs schema, catalog and targets

	receipts [][]string // [o][k] receipt id of embedded[o][k]
	marked   [][][]byte // [o][k] marked copy returned by /v1/embed
	attacked [][][]byte // dispute-cold: [o][k] 10%-altered marked copy
	copies   [][][]byte // [o][r] copy delivered to recipient r
	leaked   [][]byte   // [o] the leaked copy traced (altered on dispute-cold)
	digests  []string   // [o] plan digest of delivered[o]

	mu   sync.Mutex
	kept []keptCopy // /v1/deliver copies kept for the splice check
}

type keptCopy struct {
	owner     int
	original  []byte // canonical original
	recipient string
	body      []byte
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// setup builds one fully prepared server for workload w: generate the
// corpus, open the registry, start the node, register the owners,
// deliver and embed, then warm the caches. Every response is checked.
func setup(ctx context.Context, w workload, seed int64, dir string, conns int) (*harness, error) {
	c, err := newCorpus(seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	meta, err := wmxml.DatasetByName(dataset, 1, 0)
	if err != nil {
		return nil, err
	}
	store := wmxml.NewMemoryRegistry()
	nodes, err := startNodes(1, store)
	if err != nil {
		store.Close()
		return nil, err
	}
	h := &harness{
		w: w, c: c, dir: dir, store: store, nodes: nodes, meta: meta, conns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	if err := h.prepare(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the nodes and the client's connections and closes the
// registry.
func (h *harness) close() {
	stopNodes(h.nodes)
	h.client.CloseIdleConnections()
	h.store.Close()
}

func (h *harness) prepare(ctx context.Context) error {
	n := numOwners
	h.receipts, h.marked, h.attacked = make([][]string, n), make([][][]byte, n), make([][][]byte, n)
	h.copies, h.leaked, h.digests = make([][][]byte, n), make([][]byte, n), make([]string, n)
	for _, spec := range h.c.owners {
		body, _ := json.Marshal(map[string]any{"id": spec.ID, "key": spec.Key, "mark": spec.Mark, "gamma": gamma, "dataset": dataset})
		r := request{path: "/v1/owners", body: body, check: wantOK}
		if out := h.do(ctx, r); out.err != nil {
			return fmt.Errorf("register %s: %w", spec.ID, out.err)
		}
	}
	if err := h.eachOwner(ctx, h.deliverAndEmbed); err != nil {
		return err
	}
	if h.w.mix == mixCold {
		if err := h.eachOwner(ctx, func(_ context.Context, o int) error { return h.attack(o) }); err != nil {
			return err
		}
	}
	// Warm the caches: every distinct body once, which also checks the
	// setup's products against ground truth.
	return h.eachOwner(ctx, func(ctx context.Context, o int) error {
		for k := 0; k < embeds; k++ {
			if out := h.do(ctx, h.request(item{Kind: kDetect, Owner: o, Doc: k, Seq: -1 - k})); out.err != nil {
				return fmt.Errorf("warm detect: %w", out.err)
			}
		}
		if h.w.mix == mixDispute {
			if out := h.do(ctx, h.request(item{Kind: kDetect, Owner: o, Doc: h.c.clean[o], Clean: true})); out.err != nil {
				return fmt.Errorf("warm clean detect: %w", out.err)
			}
		}
		if out := h.do(ctx, h.request(item{Kind: kTrace, Owner: o, Doc: h.c.leak[o], Seq: -1})); out.err != nil {
			return fmt.Errorf("warm trace: %w", out.err)
		}
		return nil
	})
}

// eachOwner runs fn for every owner on h.conns goroutines; each owner's
// requests stay in order, so its receipt order is seed-determined.
func (h *harness) eachOwner(ctx context.Context, fn func(ctx context.Context, o int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, numOwners)
	next := make(chan int, numOwners)
	for o := 0; o < numOwners; o++ {
		next <- o
	}
	close(next)
	for i := 0; i < h.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				errs[o] = fn(ctx, o)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// deliverAndEmbed gives owner o its 16 receipts: a plan and eight
// delivered copies of one document, then eight embedded documents.
func (h *harness) deliverAndEmbed(ctx context.Context, o int) error {
	spec := h.c.owners[o]
	want := sha256Hex(h.c.delivered[o])
	r := request{it: item{Kind: kPlan}, path: "/v1/deliver/plan?owner=" + spec.ID + "&doc=delivered", key: spec.Key, body: h.c.delivered[o], check: wantDigest(want)}
	if out := h.do(ctx, r); out.err != nil {
		return fmt.Errorf("plan %s: %w", spec.ID, out.err)
	}
	h.digests[o] = want
	for rc := 0; rc < recipients; rc++ {
		var got []byte
		rid := recipientID(o, rc)
		r := request{it: item{Kind: kDeliver}, path: deliverPath(spec.ID, want, rid), key: spec.Key,
			check: func(resp *response) error {
				got = resp.body
				return wantCopy(rid)(resp)
			}}
		if out := h.do(ctx, r); out.err != nil {
			return fmt.Errorf("deliver %s: %w", rid, out.err)
		}
		h.copies[o] = append(h.copies[o], got)
	}
	h.leaked[o] = h.copies[o][h.c.leak[o]]
	h.keep(keptCopy{owner: o, original: h.c.delivered[o], recipient: recipientID(o, h.c.leak[o]), body: h.leaked[o]})
	for k := 0; k < embeds; k++ {
		var id string
		var marked []byte
		r := request{it: item{Kind: kEmbed}, path: fmt.Sprintf("/v1/embed?owner=%s&doc=e%d", spec.ID, k), key: spec.Key, body: h.c.embedded[o][k],
			check: func(resp *response) error {
				if err := wantMarked(resp); err != nil {
					return err
				}
				id, marked = resp.hdr.Get("X-Wmxml-Receipt"), resp.body
				return nil
			}}
		if out := h.do(ctx, r); out.err != nil {
			return fmt.Errorf("embed %s/%d: %w", spec.ID, k, out.err)
		}
		h.receipts[o] = append(h.receipts[o], id)
		h.marked[o] = append(h.marked[o], marked)
	}
	return nil
}

// attack makes owner o's dispute-cold suspects: each marked copy, and
// the leaked copy, altered on 10% of values with a seed-derived rng.
func (h *harness) attack(o int) error {
	alter := func(src []byte, salt int64) ([]byte, error) {
		doc, err := wmxml.ParseXMLBytes(src, wmxml.ParseOptions{})
		if err != nil {
			return nil, err
		}
		doc, err = wmxml.NewAlterationAttack(alteration).Apply(doc, rand.New(rand.NewSource(h.c.seed*1000003+salt)))
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		err = wmxml.SerializeXML(&b, doc)
		return b.Bytes(), err
	}
	for k := 0; k < embeds; k++ {
		a, err := alter(h.marked[o][k], int64(o*100+k))
		if err != nil {
			return fmt.Errorf("attack %d/%d: %w", o, k, err)
		}
		h.attacked[o] = append(h.attacked[o], a)
	}
	a, err := alter(h.leaked[o], int64(o*100+99))
	if err != nil {
		return fmt.Errorf("attack leaked %d: %w", o, err)
	}
	h.leaked[o] = a
	return nil
}

func (h *harness) keep(k keptCopy) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.kept) < 8 {
		h.kept = append(h.kept, k)
	}
}

func deliverPath(owner, digest, recipient string) string {
	return "/v1/deliver?owner=" + owner + "&digest=" + digest + "&recipient=" + recipient
}

// comment is a unique trailing comment: the parser drops it, so the
// document is unchanged while its body hash, the doc-cache key, is new.
func comment(tag string, seq int) []byte { return fmt.Appendf(nil, "<!-- %s %d -->\n", tag, seq) }

// request turns a stream item into bytes and a check.
func (h *harness) request(it item) request {
	o := it.Owner
	spec := h.c.owners[o]
	r := request{it: it, key: spec.Key}
	cold := h.w.mix == mixCold
	switch it.Kind {
	case kDetect:
		r.path = "/v1/detect?owner=" + spec.ID
		switch {
		case it.Clean:
			r.body, r.check = h.c.embedded[o][it.Doc], wantClean
		case cold:
			r.body, r.check = h.attacked[o][it.Doc], wantDetected(h.receipts[o][it.Doc])
		default:
			r.body, r.check = h.marked[o][it.Doc], wantDetected(h.receipts[o][it.Doc])
		}
		if cold && !it.Clean && it.Seq >= 0 {
			r.tail = comment("cold", it.Seq)
		}
	case kTrace:
		r.path = "/v1/trace?owner=" + spec.ID
		r.body, r.check = h.leaked[o], wantAccused(recipientID(o, it.Doc))
		if cold && it.Seq >= 0 {
			r.tail = comment("cold-trace", it.Seq)
		}
	}
	return r
}

// do sends r over the loopback and checks the response.
func (h *harness) do(ctx context.Context, r request) outcome {
	out := outcome{kind: r.it.Kind, due: time.Now()}
	out.err = h.send(ctx, r, &out)
	out.done = time.Now()
	return out
}

// doAt is do for the open loop: latency counts from due.
func (h *harness) doAt(ctx context.Context, r request, due time.Time) outcome {
	out := h.do(ctx, r)
	out.due = due
	return out
}

func (h *harness) send(ctx context.Context, r request, out *outcome) error {
	var body io.Reader = http.NoBody
	n := len(r.body) + len(r.tail)
	if n > 0 {
		body = io.MultiReader(bytes.NewReader(r.body), bytes.NewReader(r.tail))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.nodes[r.node].url+r.path, body)
	if err != nil {
		return err
	}
	req.ContentLength = int64(n)
	if r.key != "" {
		req.Header.Set("Authorization", "Bearer "+r.key)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	out.bytesIn, out.bytesOut = n, len(b)
	out.requestID = resp.Header.Get("X-Request-Id")
	res := &response{status: resp.StatusCode, hdr: resp.Header, body: b}
	if r.it.Kind == kDetect && res.status == http.StatusOK {
		var v struct {
			Tried int `json:"receipts_tried"`
		}
		json.Unmarshal(b, &v)
		out.tried = v.Tried
	}
	return r.check(res)
}

// --- ground-truth checks ---

func statusErr(r *response) error {
	msg := string(r.body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(msg))
}

func wantOK(r *response) error {
	if r.status != http.StatusOK {
		return statusErr(r)
	}
	return nil
}

type detectVerdict struct {
	Detected bool   `json:"detected"`
	Receipt  string `json:"receipt"`
}

// wantDetected: a marked suspect is detected against its own receipt.
func wantDetected(receipt string) func(*response) error {
	return func(r *response) error {
		var v detectVerdict
		if err := decodeOK(r, &v); err != nil {
			return err
		}
		if !v.Detected || v.Receipt != receipt {
			return fmt.Errorf("wrong answer: detected=%v receipt=%s, want detected against %s", v.Detected, v.Receipt, receipt)
		}
		return nil
	}
}

// wantClean: a clean original is not detected.
func wantClean(r *response) error {
	var v detectVerdict
	if err := decodeOK(r, &v); err != nil {
		return err
	}
	if v.Detected {
		return fmt.Errorf("wrong answer: clean original detected against %s", v.Receipt)
	}
	return nil
}

// wantAccused: a trace accuses exactly the leaking recipient.
func wantAccused(recipient string) func(*response) error {
	return func(r *response) error {
		var v struct {
			Accused []string `json:"accused"`
		}
		if err := decodeOK(r, &v); err != nil {
			return err
		}
		if !slices.Equal(v.Accused, []string{recipient}) {
			return fmt.Errorf("wrong answer: accused %v, want [%s]", v.Accused, recipient)
		}
		return nil
	}
}

// wantDigest: a plan is stored under the canonical original's digest.
func wantDigest(digest string) func(*response) error {
	return func(r *response) error {
		var v struct {
			Digest string `json:"digest"`
		}
		if err := decodeOK(r, &v); err != nil {
			return err
		}
		if v.Digest != digest {
			return fmt.Errorf("wrong answer: plan digest %s, want %s", v.Digest, digest)
		}
		return nil
	}
}

// wantMarked: an embed returns a document and its receipt id.
func wantMarked(r *response) error {
	if r.status != http.StatusOK {
		return statusErr(r)
	}
	if r.hdr.Get("X-Wmxml-Receipt") == "" || !bytes.HasPrefix(r.body, []byte("<")) {
		return errors.New("wrong answer: embed returned no receipt or no document")
	}
	return nil
}

// wantCopy: a splice returns a copy for the requested recipient. Its
// bytes are compared with Deliverer.Splice for a kept sample.
func wantCopy(recipient string) func(*response) error {
	return func(r *response) error {
		if r.status != http.StatusOK {
			return statusErr(r)
		}
		if r.hdr.Get("X-Wmxml-Recipient") != recipient || !bytes.HasPrefix(r.body, []byte("<")) {
			return fmt.Errorf("wrong answer: copy for %q, want %q", r.hdr.Get("X-Wmxml-Recipient"), recipient)
		}
		return nil
	}
}

func decodeOK(r *response, v any) error {
	if r.status != http.StatusOK {
		return statusErr(r)
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// checkSplices compares each kept /v1/deliver copy with the library's
// Deliverer.Splice for the same recipient.
func (h *harness) checkSplices() error {
	h.mu.Lock()
	kept := slices.Clone(h.kept)
	h.mu.Unlock()
	if len(kept) == 0 {
		return errors.New("no /v1/deliver copy was kept for the splice check")
	}
	for _, k := range kept {
		d, err := h.deliverer(k.owner)
		if err != nil {
			return err
		}
		doc, err := wmxml.ParseXMLBytes(k.original, wmxml.ParseOptions{})
		if err != nil {
			return err
		}
		plan, canonical, err := d.CompilePlan(doc)
		if err != nil {
			return err
		}
		b, err := d.Bind(plan, canonical)
		if err != nil {
			return err
		}
		want, err := d.Splice(b, nil, k.recipient)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, k.body) {
			return fmt.Errorf("wrong answer: /v1/deliver copy for %s differs from Deliverer.Splice", k.recipient)
		}
	}
	return nil
}

func (h *harness) fingerprintOptions(o int) wmxml.FingerprintOptions {
	return wmxml.FingerprintOptions{Key: h.c.owners[o].Key, Schema: h.meta.Schema, Catalog: h.meta.Catalog, Targets: h.meta.Targets, Gamma: gamma}
}

func (h *harness) deliverer(o int) (*wmxml.Deliverer, error) {
	return wmxml.NewDeliverer(h.fingerprintOptions(o))
}

func (h *harness) system(o int) (*wmxml.System, error) {
	spec := h.c.owners[o]
	return wmxml.New(wmxml.Options{Key: spec.Key, Mark: spec.Mark, Schema: h.meta.Schema, Catalog: h.meta.Catalog, Targets: h.meta.Targets, Gamma: gamma})
}
