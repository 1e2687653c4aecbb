package server

// Request-body tests: the pooled, Content-Length-sized read, what a warm
// detect allocates with it, and the lifetime contract that nothing
// outlives the handler's borrow of the buffer.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
)

// shortReader serves n bytes and then fails like a connection that
// closed before its declared Content-Length arrived. It records the
// largest window it was offered, which is the buffer readSized had
// reserved at that point.
type shortReader struct {
	n       int
	maxRead int
}

func (r *shortReader) Read(p []byte) (int, error) {
	r.maxRead = max(r.maxRead, len(p))
	if r.n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	k := min(len(p), r.n)
	clear(p[:k])
	r.n -= k
	return k, nil
}

func TestReadSized(t *testing.T) {
	t.Run("declared length is one read, one buffer", func(t *testing.T) {
		want := bytes.Repeat([]byte("<a/>"), 60000) // 240 000 B
		got, err := readSized(bytes.NewReader(want), int64(len(want)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes, err %v; want the %d-byte body", len(got), err, len(want))
		}
		if cap(got) != 1<<18 {
			t.Fatalf("cap %d, want the 256 KiB class that holds len+1", cap(got))
		}
		releaseBody(got)
	})
	t.Run("unknown length grows past the ceiling", func(t *testing.T) {
		want := bytes.Repeat([]byte("0123456789abcdef"), 3*bodyCeiling/16+5)
		got, err := readSized(io.MultiReader(bytes.NewReader(want)), -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes, err %v; want the %d-byte body", len(got), err, len(want))
		}
		releaseBody(got)
	})
	t.Run("declared 30 MiB, 1 KiB sent", func(t *testing.T) {
		r := &shortReader{n: 1 << 10}
		got, err := readSized(r, 30<<20)
		if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
			t.Fatalf("got %d bytes, err %v; want the short read's error", len(got), err)
		}
		if r.maxRead > bodyCeiling {
			t.Fatalf("reserved %d bytes for a body that never arrived, want at most the %d ceiling", r.maxRead, bodyCeiling)
		}
	})
}

// detectOver posts body to the detect endpoint at base and decodes the
// verdict.
func detectOver(t *testing.T, base string, body []byte) detectResponse {
	t.Helper()
	code, out, _ := doAs(t, "key-acme", "POST", base+"/v1/detect?owner=acme", body)
	if code != http.StatusOK {
		t.Fatalf("detect: %d %s", code, out)
	}
	var v detectResponse
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("detect response: %v: %s", err, out)
	}
	return v
}

// TestPooledBodyReuse is the body-lifetime regression test: after a
// detect returns its buffer, a different body of the same size class
// overwrites it, and the document cached from the first body must not
// change. It runs once through the fast parser (ASCII) and once through
// the strict encoding/xml fallback (a non-ASCII text value). The write
// endpoints' responses, each followed by a same-class request, must
// match a fresh server's byte for byte.
func TestPooledBodyReuse(t *testing.T) {
	// One P and no collection, so a released buffer stays in the pool
	// the next request draws from instead of being stranded on another
	// P or dropped by a GC.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 300, 21))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	other := pubsXML(t, 300, 99) // different values, same size class
	bodies := map[string][]byte{
		"ascii":     marked,
		"non-ascii": bytes.Replace(marked, []byte("<author>"), []byte("<author>É"), 1),
	}
	for name, a := range bodies {
		if bits.Len(uint(len(a))) != bits.Len(uint(len(other))) {
			t.Fatalf("%s: %d and %d bytes are not one size class", name, len(a), len(other))
		}
		first := detectOver(t, ts.URL, a)
		if first.CacheHit {
			t.Fatalf("%s: first detect was a cache hit", name)
		}
		detectOver(t, ts.URL, other)
		// Draw the buffer back out of the pool and scribble over it, so
		// the repeat detect reads into a fresh one and a cached value
		// still aliasing the old one would show the damage.
		held := getBody(len(a) + 1)
		held = held[:cap(held)]
		for i := range held {
			held[i] = '#'
		}
		again := detectOver(t, ts.URL, a)
		releaseBody(held)
		if !again.CacheHit {
			t.Fatalf("%s: repeat detect missed the cache", name)
		}
		first.CacheHit, first.ElapsedMS = true, again.ElapsedMS
		if again != first {
			t.Fatalf("%s: cached document changed after its buffer was reused:\nbefore %+v\nafter  %+v", name, first, again)
		}
	}

	_, fresh := newTestServer(t, Options{})
	registerOwner(t, fresh.URL, "acme")
	doc := pubsXML(t, 300, 22)
	for _, path := range []string{
		"/v1/embed?owner=acme&doc=x.xml",
		"/v1/fingerprint?owner=acme&recipient=r1",
		"/v1/deliver/plan?owner=acme&doc=x.xml",
	} {
		code, got, hdr := doAs(t, "key-acme", "POST", ts.URL+path, doc)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, got)
		}
		doAs(t, "key-acme", "POST", ts.URL+path, other)
		_, want, wantHdr := doAs(t, "key-acme", "POST", fresh.URL+path, doc)
		if !bytes.Equal(got, want) || hdr.Get("X-Wmxml-Receipt") != wantHdr.Get("X-Wmxml-Receipt") {
			t.Fatalf("%s: response differs from a fresh server's (%d vs %d bytes, receipt %q vs %q)",
				path, len(got), len(want), hdr.Get("X-Wmxml-Receipt"), wantHdr.Get("X-Wmxml-Receipt"))
		}
	}
}

// TestChunkedBodyDetect: a body of unknown length (sent chunked) is read
// in full through the growing path and detected.
func TestChunkedBodyDetect(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 300, 5))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	// An opaque reader: net/http cannot learn the length and sends the
	// body chunked.
	req, err := http.NewRequest("POST", ts.URL+"/v1/detect?owner=acme", io.MultiReader(bytes.NewReader(marked)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v detectResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK || !v.Detected {
		t.Fatalf("chunked detect: %d %+v (%v)", resp.StatusCode, v, err)
	}
}
