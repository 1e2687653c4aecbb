package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"wmxml/internal/index"
	"wmxml/internal/registry"
	"wmxml/internal/xmltree"
)

// TestDetectMissSingleflight is the thundering-herd regression test:
// 16 concurrent cold detects of the same body must trigger exactly one
// parse+index — one leader misses, the other 15 coalesce onto its
// flight. Before the fix each of the 16 did the full work.
//
// The CacheFill hook doubles as a deterministic barrier: the leader
// blocks inside the miss until all 15 waiters have joined the flight,
// so the assertion cannot be satisfied by lucky serialization (requests
// finishing before the rest arrive would hit the cache instead, and
// coalesced would come up short).
func TestDetectMissSingleflight(t *testing.T) {
	const clients = 16
	var s *Server
	fill := func(sum [sha256.Size]byte, body []byte) (*xmltree.Node, *index.Index, bool) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if coalesced, _ := s.CacheFlightStats(); coalesced >= clients-1 {
				return nil, nil, false // all waiters parked; do the real parse
			}
			if time.Now().After(deadline) {
				return nil, nil, false
			}
			time.Sleep(time.Millisecond)
		}
	}
	s, ts := newTestServer(t, Options{Workers: clients, CacheFill: fill})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 150, 7))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
			if code != http.StatusOK {
				errs <- fmt.Errorf("detect: %d %s", code, body)
				return
			}
			var det struct {
				Detected bool `json:"detected"`
			}
			if err := json.Unmarshal(body, &det); err != nil || !det.Detected {
				errs <- fmt.Errorf("detect verdict: %s (%v)", body, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hits, misses, _, _ := s.CacheStats()
	coalesced, _ := s.CacheFlightStats()
	if misses != 1 {
		t.Errorf("16 concurrent cold detects parsed %d times, want exactly 1", misses)
	}
	if coalesced != clients-1 {
		t.Errorf("coalesced waiters = %d, want %d", coalesced, clients-1)
	}
	if hits != 0 {
		t.Errorf("cache hits = %d during the cold burst, want 0", hits)
	}

	// The flight is retired: a fresh request is a plain cache hit.
	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK {
		t.Fatalf("post-burst detect: %d %s", code, body)
	}
	if hits, _, _, _ := s.CacheStats(); hits != 1 {
		t.Errorf("post-burst hits = %d, want 1", hits)
	}
}

// TestSingleflightErrorPropagates: a leader whose body fails to parse
// must hand the error to every waiter — not a zero-value document.
func TestSingleflightErrorPropagates(t *testing.T) {
	c := newDocCache(4, 0)
	key := sha256.Sum256([]byte("bad body"))
	call, leader := c.join(key)
	if !leader {
		t.Fatal("first join was not the leader")
	}
	waiter, leader2 := c.join(key)
	if leader2 || waiter != call {
		t.Fatal("second join did not coalesce onto the live flight")
	}
	wantErr := fmt.Errorf("parse exploded")
	c.complete(key, call, cachedDoc{}, wantErr)
	waiter.wg.Wait()
	if waiter.err != wantErr {
		t.Fatalf("waiter saw err=%v, want the leader's error", waiter.err)
	}
	// The flight is gone; the next join starts fresh.
	if _, leader := c.join(key); !leader {
		t.Fatal("join after complete did not start a new flight")
	}
}

// TestCacheFillHook: a miss satisfied by the peer-fill hook skips the
// local parse, counts as a fill, and still populates the cache.
func TestCacheFillHook(t *testing.T) {
	var hookCalls int
	fill := func(sum [sha256.Size]byte, body []byte) (*xmltree.Node, *index.Index, bool) {
		hookCalls++
		doc, err := xmltree.ParseBytes(body, xmltree.ParseOptions{})
		if err != nil {
			return nil, nil, false
		}
		return doc, index.New(doc), true
	}
	s, ts := newTestServer(t, Options{CacheFill: fill})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 120, 3))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, body)
	}
	var det struct {
		Detected bool `json:"detected"`
	}
	if err := json.Unmarshal(body, &det); err != nil || !det.Detected {
		t.Fatalf("detect through hook-filled cache: %s (%v)", body, err)
	}
	if _, fills := s.CacheFlightStats(); fills != 1 || hookCalls != 1 {
		t.Errorf("fills=%d hookCalls=%d, want 1 and 1", fills, hookCalls)
	}
	// Second detect: plain hit, the hook is not consulted again.
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked); code != http.StatusOK {
		t.Fatal("repeat detect failed")
	}
	if hookCalls != 1 {
		t.Errorf("cache hit consulted the fill hook (calls=%d)", hookCalls)
	}
}

// docKey is the cache key of a synthetic body.
func docKey(format string, args ...any) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
}

// TestDocCacheScanResistance: a hot set that was hit survives a scan of
// ten cache-sizes of one-shot bodies, which only ever cycle through the
// probation segment.
func TestDocCacheScanResistance(t *testing.T) {
	const capacity = 64
	c := newDocCache(capacity, 0)
	for i := 0; i < 8; i++ {
		k := docKey("hot %d", i)
		c.put(k, cachedDoc{}, 1)
		for j := 0; j < 2; j++ {
			if _, ok, _ := c.get(k); !ok {
				t.Fatalf("hot body %d missed on hit %d", i, j)
			}
		}
	}
	for i := 0; i < 10*capacity; i++ {
		c.put(docKey("scan %d", i), cachedDoc{}, 1)
	}
	for i := 0; i < 8; i++ {
		if _, ok, _ := c.get(docKey("hot %d", i)); !ok {
			t.Errorf("hot body %d was flushed by the one-shot scan", i)
		}
	}
	if got, want := c.len(), 8+c.probCap; got != want {
		t.Errorf("entries after the scan = %d, want the hot set plus a full probation segment (%d)", got, want)
	}
}

// TestDocCacheGhostAdmission: a body evicted from probation and then
// parsed again goes straight to protected through the ghost set, so
// its next request hits even after more one-shot bodies pass through.
func TestDocCacheGhostAdmission(t *testing.T) {
	c := newDocCache(16, 0) // probation 2, protected 14
	a := docKey("a")
	c.put(a, cachedDoc{}, 1)
	c.put(docKey("b"), cachedDoc{}, 1)
	c.put(docKey("c"), cachedDoc{}, 1)
	if _, ok, _ := c.get(a); ok {
		t.Fatal("a survived two newer bodies in a 2-entry probation segment")
	}
	if _, promoted := c.put(a, cachedDoc{}, 1); !promoted {
		t.Fatal("a re-parsed ghost was not admitted to protected")
	}
	for i := 0; i < 8; i++ {
		c.put(docKey("scan %d", i), cachedDoc{}, 1)
	}
	if _, ok, promoted := c.get(a); !ok || promoted {
		t.Fatalf("a after the ghost admission: hit=%v promoted=%v, want a hit in protected", ok, promoted)
	}
}

// TestDocCacheByteCapSparesProtected: a one-shot body never evicts a
// protected entry, whether it is over the byte cap on its own (served
// but not cached) or only pushes the total over it (it is evicted from
// probation itself).
func TestDocCacheByteCapSparesProtected(t *testing.T) {
	c := newDocCache(16, 100)
	hot := [][sha256.Size]byte{docKey("h1"), docKey("h2")}
	for _, k := range hot {
		c.put(k, cachedDoc{}, 30)
		if _, ok, promoted := c.get(k); !ok || !promoted {
			t.Fatalf("hot body: hit=%v promoted=%v, want a promotion", ok, promoted)
		}
	}
	if ev, _ := c.put(docKey("huge"), cachedDoc{}, 101); ev != 0 || c.len() != 2 {
		t.Fatalf("a body over the byte cap evicted %d, left %d entries; want 0 and 2", ev, c.len())
	}
	if ev, _ := c.put(docKey("big"), cachedDoc{}, 60); ev != 1 {
		t.Fatalf("a body that overflows the byte cap evicted %d, want only itself", ev)
	}
	for _, k := range hot {
		if _, ok, _ := c.get(k); !ok {
			t.Error("a one-shot body evicted a protected entry")
		}
	}
	if c.weight() != 60 {
		t.Errorf("weight = %d, want the two hot bodies' 60", c.weight())
	}
}

// TestDocCacheConcurrentInvariants: concurrent gets and puts over a
// shared key space keep both segments within their caps and the entry
// map, the segments and the byte total in agreement.
func TestDocCacheConcurrentInvariants(t *testing.T) {
	c := newDocCache(16, 200)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := docKey("k %d", (i*7+g*13)%48)
				if _, ok, _ := c.get(k); !ok {
					c.put(k, cachedDoc{}, int64(1+i%20))
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var weight int64
	for _, seg := range []*list.List{c.probation, c.protected} {
		for el := seg.Front(); el != nil; el = el.Next() {
			en := el.Value.(*docEntry)
			if en.seg != seg || c.entries[en.key] != el {
				t.Fatal("an entry's segment or map element disagrees with the list holding it")
			}
			weight += en.weight
		}
	}
	if n := c.probation.Len() + c.protected.Len(); n != len(c.entries) || weight != c.bytes {
		t.Fatalf("segments hold %d entries weighing %d; map has %d, total %d", n, weight, len(c.entries), c.bytes)
	}
	if c.probation.Len() > c.probCap || c.protected.Len() > c.cap-c.probCap || c.bytes > c.capBytes {
		t.Fatalf("probation %d/%d, protected %d/%d, bytes %d/%d: over a cap",
			c.probation.Len(), c.probCap, c.protected.Len(), c.cap-c.probCap, c.bytes, c.capBytes)
	}
	if c.ghostLRU.Len() != len(c.ghosts) || len(c.ghosts) > c.cap*ghostShare {
		t.Fatalf("ghost list %d, ghost map %d, cap %d", c.ghostLRU.Len(), len(c.ghosts), c.cap*ghostShare)
	}
}

// TestDocCacheGaugesCountBothSegments: the entries and bytes gauges
// report both segments together.
func TestDocCacheGaugesCountBothSegments(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheEntries: 16})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 40, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	var weight int64
	for i, body := range [][]byte{marked, marked, pubsXML(t, 40, 2)} {
		if code, out, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", body); code != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, code, out)
		}
		if i != 1 {
			weight += int64(len(body))
		}
	}
	s.cache.mu.Lock()
	prob, prot := s.cache.probation.Len(), s.cache.protected.Len()
	s.cache.mu.Unlock()
	if prob != 1 || prot != 1 {
		t.Fatalf("segments: probation %d, protected %d; want 1 and 1", prob, prot)
	}
	if got := s.met.cacheSize.Value(); got != 2 {
		t.Errorf("entries gauge = %d, want 2 (both segments)", got)
	}
	if got := s.met.cacheBytes.Value(); got != weight {
		t.Errorf("bytes gauge = %d, want %d (both segments)", got, weight)
	}
	if got := s.met.cachePromote.Value(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
}

// TestDocCacheSingleEntry: CacheEntries 1 leaves no room for a
// protected segment, yet still caches one body.
func TestDocCacheSingleEntry(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheEntries: 1})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 40, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	for i := 0; i < 3; i++ {
		code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", marked)
		if code != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, code, body)
		}
		var det struct {
			CacheHit bool `json:"cache_hit"`
		}
		if err := json.Unmarshal(body, &det); err != nil || det.CacheHit != (i > 0) {
			t.Fatalf("detect %d: cache_hit=%v (%v), want %v", i, det.CacheHit, err, i > 0)
		}
	}
	if hits, misses, evicts, size := s.CacheStats(); hits != 2 || misses != 1 || evicts != 0 || size != 1 {
		t.Errorf("hits=%d misses=%d evictions=%d size=%d, want 2, 1, 0, 1", hits, misses, evicts, size)
	}
}

// countingStore wraps a Store and counts GetOwner calls, to observe the
// OwnerRefresh fast path skipping registry reads.
type countingStore struct {
	registry.Store
	mu       sync.Mutex
	getOwner int
}

func (c *countingStore) GetOwner(id string) (registry.Owner, error) {
	c.mu.Lock()
	c.getOwner++
	c.mu.Unlock()
	return c.Store.GetOwner(id)
}

func (c *countingStore) calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getOwner
}

// TestOwnerRefreshSkipsRegistry: with OwnerRefresh set, repeat requests
// inside the window reuse the compiled runtime without re-reading the
// owner record — the point of the knob when the registry is remote —
// while the credential check still runs against the cached record.
func TestOwnerRefreshSkipsRegistry(t *testing.T) {
	cs := &countingStore{Store: registry.NewMemory()}
	_, ts := newTestServer(t, Options{Registry: cs, OwnerRefresh: time.Hour})
	registerOwner(t, ts.URL, "acme")
	code, doc, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 60, 1))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, doc)
	}

	if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusOK {
		t.Fatalf("first detect: %d %s", code, body)
	}
	base := cs.calls()
	for i := 0; i < 10; i++ {
		if code, body, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, code, body)
		}
	}
	if got := cs.calls(); got != base {
		t.Errorf("10 in-window detects read the owner record %d times, want 0", got-base)
	}
	// Authentication is not relaxed by the staleness bound.
	if code, _, _ := doAs(t, "wrong-key", "POST", ts.URL+"/v1/detect?owner=acme", doc); code != http.StatusUnauthorized {
		t.Errorf("stale-path detect with wrong key = %d, want 401", code)
	}
}
