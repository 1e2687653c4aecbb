package server

// Request bodies. Every buffered endpoint reads its body once into a
// buffer borrowed from a power-of-two size-class pool and gives it back
// when the handler returns (defer releaseBody(body) directly after
// readBody's error check). Repeat detection of the same suspects is the
// service's high-volume path, and per-request body garbage there makes
// the collector rescan the document cache far more often than the work
// itself needs.
//
// A borrowed body is valid only until the handler returns. Everything
// derived from it must own its bytes: the parsers copy every name and
// value into strings, json.Unmarshal copies into its targets (including
// json.RawMessage), hashes consume the bytes, and the document cache
// keys on the body's SHA-256 and weighs it by length. The CacheFill hook
// is told the same contract.

import (
	"errors"
	"io"
	"math/bits"
	"net/http"
	"sync"

	"wmxml/internal/obs"
)

const (
	// bodyCeiling caps the buffer a declared Content-Length reserves
	// before any byte arrives: a client that declares MaxBodyBytes and
	// sends a trickle must not make the server hold MaxBodyBytes per
	// connection. Past it a body grows as its bytes actually arrive. It
	// is also the largest pooled size class.
	bodyCeiling = 1 << maxBodyClass

	minBodyClass = 9  // 512 B, io.ReadAll's first allocation
	maxBodyClass = 20 // 1 MiB
)

// bodyPools holds *[]byte buffers of capacity 1<<c at index
// c-minBodyClass.
var bodyPools [maxBodyClass - minBodyClass + 1]sync.Pool

// readBody reads the size-capped request body into a pooled buffer. The
// caller must releaseBody it once nothing references it any more.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	tr := obs.FromContext(r.Context())
	sp := tr.StartSpan("read")
	body, err := readSized(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), min(r.ContentLength, s.opts.MaxBodyBytes))
	sp.End()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.tooLarge.Inc()
		}
		return nil, err
	}
	if len(body) == 0 {
		releaseBody(body)
		return nil, errf(http.StatusBadRequest, "empty request body")
	}
	tr.SetDocBytes(int64(len(body)))
	return body, nil
}

// readSized reads rd to EOF into a pooled buffer presized for size
// bytes (negative when unknown): one byte more than declared, so the
// read that sees EOF does not grow it, but never more than bodyCeiling
// up front. On error the buffer goes back to the pool.
func readSized(rd io.Reader, size int64) ([]byte, error) {
	n := 1 << minBodyClass
	switch {
	case size >= bodyCeiling:
		n = bodyCeiling
	case size >= 0:
		n = int(size) + 1
	}
	b := getBody(n)
	for {
		if len(b) == cap(b) {
			b = growBody(b)
		}
		m, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			releaseBody(b)
			return nil, err
		}
	}
}

// getBody returns an empty buffer of the smallest size class holding n
// (n <= bodyCeiling) bytes.
func getBody(n int) []byte {
	c := max(bits.Len(uint(n-1)), minBodyClass)
	if p, ok := bodyPools[c-minBodyClass].Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return make([]byte, 0, 1<<c)
}

// growBody moves a full buffer's bytes into one twice its class (pooled
// up to the ceiling; past it, the runtime's append growth, as io.ReadAll
// grows) and releases the old one.
func growBody(b []byte) []byte {
	var nb []byte
	if cap(b) < bodyCeiling {
		nb = append(getBody(2*cap(b)), b...)
	} else {
		nb = append(b, 0)[:len(b)]
	}
	releaseBody(b)
	return nb
}

// releaseBody returns a buffer from readBody to its size-class pool;
// nothing may reference its bytes afterwards. Buffers outside the
// pooled classes (grown past the ceiling, or nil) are left to the
// collector.
func releaseBody(b []byte) {
	c := bits.Len(uint(cap(b))) - 1
	if c < minBodyClass || c > maxBodyClass || cap(b) != 1<<c {
		return
	}
	b = b[:0]
	bodyPools[c-minBodyClass].Put(&b)
}
