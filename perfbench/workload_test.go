package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
)

// corpusDigest hashes every byte and owner field the server would see.
func corpusDigest(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	c, err := newCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for o, spec := range c.owners {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|", spec.ID, spec.Key, spec.Mark, c.leak[o], c.clean[o])
		h.Write(c.delivered[o])
		for _, e := range c.embedded[o] {
			h.Write(e)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestCorpusIsSeedDetermined(t *testing.T) {
	a, b, other := corpusDigest(t, 7), corpusDigest(t, 7), corpusDigest(t, 8)
	if a != b {
		t.Fatal("the same seed gave different corpus bytes")
	}
	if a == other {
		t.Fatal("different seeds gave identical corpus bytes")
	}
}

func TestRequestOrderIsSeedDetermined(t *testing.T) {
	c, err := newCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	order := func(m mix, seed int64) []item {
		s := newStream(m, c, seed)
		out := make([]item, 600)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, m := range []mix{mixDispute, mixCold} {
		a, b, other := order(m, 11), order(m, 11), order(m, 12)
		if !slices.Equal(a, b) {
			t.Errorf("mix %d: the same seed gave different request orders", m)
		}
		if slices.Equal(a, other) {
			t.Errorf("mix %d: different seeds gave the same request order", m)
		}
	}
}

func TestDisputeMixShares(t *testing.T) {
	c, err := newCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(mixDispute, c, 5)
	const n = 20000
	var clean, trace int
	for i := 0; i < n; i++ {
		it := s.next()
		switch {
		case it.Kind == kTrace:
			trace++
		case it.Clean:
			clean++
		}
	}
	if f := float64(clean) / n; f < 0.11 || f > 0.14 {
		t.Errorf("clean originals are %.3f of the mix, want about 1/8", f)
	}
	if f := float64(trace) / n; f < 0.015 || f > 0.025 {
		t.Errorf("traces are %.3f of the mix, want about 1/50", f)
	}
}
