package server

// The suspect-document cache. Query-preserving watermarking assumes
// detection is re-run many times against the same suspect data
// (arXiv:1909.11369's setting, and any dispute that escalates); parsing
// a large XML body and building its DocumentIndex dominates the cost of
// an indexed detection, so the server keys both on the SHA-256 of the
// raw request body and serves repeats from memory. Entries are
// strictly read-only: detection and verification never mutate the tree,
// and embedding (which does) bypasses the cache entirely.
//
// Admission is 2Q / segmented LRU (Johnson & Shasha, VLDB 1994). A new
// body enters a small probation segment of max(1, cap/probationShare)
// entries; only a second request while it is there promotes it to the
// protected LRU, which holds the rest of the entry cap. When protected
// overflows, its tail is demoted back to probation. A ghost set keeps
// the hashes (32 bytes each, no trees) of the last cap×ghostShare
// bodies evicted from probation, and a ghost that is parsed again goes
// straight into protected. Every eviction takes the probation tail
// first, so a scan of one-shot suspects, which is most of what a
// dispute sees, cycles through probation and never flushes the
// protected working set, and the heap holds cap/probationShare one-shot
// trees instead of cap. The trade-off: a body whose reuse distance
// exceeds the probation segment pays one extra parse before the ghost
// set admits it.
//
// Eviction is bounded two ways: an entry-count cap and a total-bytes
// cap, weighted by each entry's source body length (a stable proxy for
// the parsed tree + index footprint, which scale linearly with it). The
// entry cap alone proved insufficient: 128 cached 40 MB suspects is
// 5 GB of trees, while 128 one-record documents is nothing. An entry
// whose weight alone exceeds the byte cap is served but never cached —
// one oversized suspect must not flush every tenant's working set.

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"wmxml/internal/index"
	"wmxml/internal/xmltree"
)

const (
	// probationShare: the probation segment holds 1/probationShare of
	// the entry cap (at least one entry); protected holds the rest.
	probationShare = 8
	// ghostShare: the ghost set remembers ghostShare × the entry cap
	// hashes of bodies evicted from probation.
	ghostShare = 1
)

// cachedDoc is one parsed suspect: the immutable tree and its index.
type cachedDoc struct {
	doc *xmltree.Node
	ix  *index.Index
}

// docCache is a content-hash-keyed 2Q cache of parsed documents. Safe
// for concurrent use; the cached values are shared across requests,
// which is sound because readers never mutate them (the index's lazy
// key-value tables lock internally).
type docCache struct {
	mu        sync.Mutex
	cap       int   // max entries over both segments; 0 disables the cache
	probCap   int   // probation segment size
	capBytes  int64 // max total weight; 0 = unlimited
	bytes     int64 // current total weight, both segments
	entries   map[[sha256.Size]byte]*list.Element
	probation *list.List // front = most recent; values are *docEntry
	protected *list.List // front = most recent; values are *docEntry
	ghosts    map[[sha256.Size]byte]*list.Element
	ghostLRU  *list.List // front = most recently evicted; values are keys

	// Singleflight over cache fills: concurrent cold requests for the
	// same body hash share one parse+index instead of each doing the
	// full work (the miss-stampede bug ISSUE 10 fixes). Guarded by its
	// own mutex so a slow parse never blocks cache hits for other keys.
	flightMu sync.Mutex
	flights  map[[sha256.Size]byte]*flightCall
}

// flightCall is one in-progress fill. The leader populates cd/err and
// calls done; waiters block on wg and then read them (the WaitGroup
// provides the happens-before edge).
type flightCall struct {
	wg  sync.WaitGroup
	cd  cachedDoc
	err error
}

type docEntry struct {
	key    [sha256.Size]byte
	val    cachedDoc
	weight int64      // source body length, the eviction weight
	seg    *list.List // the segment holding the entry
}

func newDocCache(capacity int, capBytes int64) *docCache {
	if capacity < 0 {
		capacity = 0
	}
	if capBytes < 0 {
		capBytes = 0
	}
	return &docCache{
		cap:       capacity,
		probCap:   max(1, capacity/probationShare),
		capBytes:  capBytes,
		entries:   make(map[[sha256.Size]byte]*list.Element),
		probation: list.New(),
		protected: list.New(),
		ghosts:    make(map[[sha256.Size]byte]*list.Element),
		ghostLRU:  list.New(),
		flights:   make(map[[sha256.Size]byte]*flightCall),
	}
}

// join enters the singleflight for a body hash. The first caller per
// key becomes the leader (leader == true) and must eventually call
// complete; everyone else gets the same *flightCall and should wait on
// its WaitGroup, then read cd/err.
func (c *docCache) join(key [sha256.Size]byte) (f *flightCall, leader bool) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	f = &flightCall{}
	f.wg.Add(1)
	c.flights[key] = f
	return f, true
}

// complete publishes the leader's result (or error) to all waiters and
// retires the flight. New requests for the same key after this point
// either hit the now-populated cache or start a fresh flight.
func (c *docCache) complete(key [sha256.Size]byte, f *flightCall, cd cachedDoc, err error) {
	f.cd = cd
	f.err = err
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	f.wg.Done()
}

// get returns the cached parse for a body hash, refreshing recency. A
// hit in probation promotes the entry to protected (promoted == true).
func (c *docCache) get(key [sha256.Size]byte) (cd cachedDoc, ok, promoted bool) {
	if c.cap == 0 {
		return cachedDoc{}, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cachedDoc{}, false, false
	}
	en := el.Value.(*docEntry)
	if en.seg == c.protected {
		c.protected.MoveToFront(el)
		return en.val, true, false
	}
	c.probation.Remove(el)
	return en.val, true, c.admit(en, true)
}

// put inserts a parsed document weighted by its source body length and
// returns how many entries it evicted and whether the body went
// straight to protected through the ghost set. An entry too large to
// ever fit the byte cap is not cached at all. A concurrent insert of
// the same key wins quietly (both values are equivalent parses of the
// same bytes).
func (c *docCache) put(key [sha256.Size]byte, val cachedDoc, weight int64) (evicted int, promoted bool) {
	if c.cap == 0 {
		return 0, false
	}
	if weight < 0 {
		weight = 0
	}
	if c.capBytes > 0 && weight > c.capBytes {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*docEntry)
		en.seg.MoveToFront(el)
		c.bytes += weight - en.weight
		en.val = val
		en.weight = weight
	} else {
		en := &docEntry{key: key, val: val, weight: weight}
		c.bytes += weight
		ghost, seen := c.ghosts[key]
		if seen {
			c.ghostLRU.Remove(ghost)
			delete(c.ghosts, key)
		}
		promoted = c.admit(en, seen)
	}
	for c.probation.Len() > c.probCap {
		c.evict(c.probation.Back())
		evicted++
	}
	for c.capBytes > 0 && c.bytes > c.capBytes && len(c.entries) > 1 {
		if last := c.probation.Back(); last != nil {
			c.evict(last)
		} else {
			c.evict(c.protected.Back())
		}
		evicted++
	}
	return evicted, promoted
}

// admit links an entry that is in neither segment: into protected when
// protect is set and protected has room in the entry cap (demoting
// protected's tail to probation on overflow), otherwise to the front of
// probation. It reports whether the entry went to protected. The
// caller trims probation afterwards; a promotion never grows it, since
// the entry it demotes replaces the one promoted.
func (c *docCache) admit(en *docEntry, protect bool) bool {
	protCap := c.cap - c.probCap
	if !protect || protCap <= 0 {
		en.seg = c.probation
		c.entries[en.key] = c.probation.PushFront(en)
		return false
	}
	en.seg = c.protected
	c.entries[en.key] = c.protected.PushFront(en)
	for c.protected.Len() > protCap {
		tail := c.protected.Back()
		c.protected.Remove(tail)
		dem := tail.Value.(*docEntry)
		dem.seg = c.probation
		c.entries[dem.key] = c.probation.PushFront(dem)
	}
	return true
}

// evict drops an entry. An entry leaving probation is remembered in the
// ghost set, so a body that comes back soon is admitted to protected.
func (c *docCache) evict(el *list.Element) {
	en := el.Value.(*docEntry)
	en.seg.Remove(el)
	delete(c.entries, en.key)
	c.bytes -= en.weight
	if en.seg != c.probation {
		return
	}
	c.ghosts[en.key] = c.ghostLRU.PushFront(en.key)
	if c.ghostLRU.Len() > c.cap*ghostShare {
		old := c.ghostLRU.Back()
		c.ghostLRU.Remove(old)
		delete(c.ghosts, old.Value.([sha256.Size]byte))
	}
}

// len reports the current entry count over both segments.
func (c *docCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// weight reports the current total byte weight over both segments.
func (c *docCache) weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
