//go:build !race

package server

// The race detector makes sync.Pool drop a random quarter of the buffers
// it is handed, so under -race this pin would measure the detector, not
// the server; it runs in every plain test run.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// detectInProcess runs one warm-path detect through the handler without
// a network hop.
func detectInProcess(t *testing.T, h http.Handler, body []byte) {
	req := httptest.NewRequest("POST", "/v1/detect?owner=acme", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer key-acme")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("detect: %d %s", rec.Code, rec.Body.Bytes())
	}
}

// TestWarmDetectAllocs pins what a warm detect allocates: with the
// document cached and the body read into a pooled buffer, a request
// costs well under half its own body. Reading through io.ReadAll cost
// about five times the body.
func TestWarmDetectAllocs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	code, marked, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/embed?owner=acme&doc=d.xml", pubsXML(t, 1000, 11))
	if code != http.StatusOK {
		t.Fatalf("embed: %d %s", code, marked)
	}
	h := s.Handler()
	for i := 0; i < 3; i++ { // parse, index, plan compile and pool warm-up
		detectInProcess(t, h, marked)
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		detectInProcess(t, h, marked)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / n
	if perOp >= uint64(len(marked))/2 {
		t.Fatalf("warm detect allocates %d B per op for a %d B body, want under half the body", perOp, len(marked))
	}
	t.Logf("warm detect: %d B/op for a %d B body", perOp, len(marked))
}
