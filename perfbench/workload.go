package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"wmxml"
)

// Corpus shape shared by every workload: pubs documents of 1000
// records (about 238 KB) at gamma 5.
const (
	dataset    = "pubs"
	records    = 1000
	gamma      = 5
	numOwners  = 8
	recipients = 8 // delivered copies per owner
	embeds     = 8 // embedded documents per owner, after the deliveries
	alteration = 0.10
)

// workload is one traffic mix with its open-loop rate and latency limit.
// Both are served by one node over the daemon's default in-memory
// registry.
type workload struct {
	name  string
	rate  float64       // open-loop requests per second
	limit time.Duration // latency limit for slo_ratio
	mix   mix
}

type mix int

const (
	mixDispute mix = iota // marked copies, clean originals, traces; all cached
	mixCold               // attacked marked copies, each body unique
)

var workloads = []workload{
	{name: "dispute-warm", rate: 150, limit: 10 * time.Millisecond, mix: mixDispute},
	{name: "dispute-cold", rate: 60, limit: 40 * time.Millisecond, mix: mixCold},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ownerSpec is one tenant the benchmark registers.
type ownerSpec struct {
	ID, Key, Mark string
}

// corpus is every input the server will see, generated from the seed
// alone.
type corpus struct {
	seed   int64
	owners []ownerSpec
	// delivered[o] is the document owner o delivers to its recipients.
	delivered [][]byte
	// embedded[o][k] is the k-th document owner o embeds; the bodies sent
	// to /v1/embed, and the clean originals of the dispute mix.
	embedded [][][]byte
	// leak[o] is the recipient whose copy leaks; clean[o] the embedded
	// document whose clean original is probed.
	leak, clean []int
}

func newCorpus(seed int64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{seed: seed}
	gen := func() ([]byte, error) {
		ds, err := wmxml.DatasetByName(dataset, records, rng.Int63())
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := wmxml.SerializeXML(&b, ds.Doc); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	for o := 0; o < numOwners; o++ {
		c.owners = append(c.owners, ownerSpec{
			ID:   fmt.Sprintf("owner%d", o),
			Key:  fmt.Sprintf("key-%016x", rng.Uint64()),
			Mark: fmt.Sprintf("(C)%04d", rng.Intn(10000)),
		})
		d, err := gen()
		if err != nil {
			return nil, err
		}
		c.delivered = append(c.delivered, d)
		var docs [][]byte
		for k := 0; k < embeds; k++ {
			e, err := gen()
			if err != nil {
				return nil, err
			}
			docs = append(docs, e)
		}
		c.embedded = append(c.embedded, docs)
		c.leak = append(c.leak, rng.Intn(recipients))
		c.clean = append(c.clean, rng.Intn(embeds))
	}
	return c, nil
}

func recipientID(o, r int) string { return fmt.Sprintf("rcpt%d-%d", o, r) }

// kind is a request class.
type kind uint8

const (
	kDetect kind = iota
	kTrace
	kEmbed
	kPlan
	kDeliver
	numKinds
)

var kindNames = [numKinds]string{"detect", "trace", "embed", "plan", "deliver"}

func (k kind) String() string { return kindNames[k] }

// item is one request of a workload's stream, named by corpus indices;
// the harness turns it into bytes and expectations.
type item struct {
	Kind  kind
	Owner int
	// Doc is the embedded-document index (detect, embed, plan) or the
	// recipient index (trace).
	Doc   int
	Clean bool // detect of a clean original
	// Seq numbers the request in its stream; it makes cold bodies unique.
	Seq int
}

// stream yields a workload's requests in a seed-determined order.
type stream struct {
	m   mix
	c   *corpus
	rng *rand.Rand
	seq int
}

func newStream(m mix, c *corpus, seed int64) *stream {
	return &stream{m: m, c: c, rng: rand.New(rand.NewSource(seed))}
}

func (s *stream) next() item {
	o := s.rng.Intn(numOwners)
	it := item{Kind: kDetect, Owner: o, Seq: s.seq}
	switch {
	case s.m == mixCold:
		it.Doc = s.rng.Intn(embeds)
	// Fixed positions for the expensive classes of the dispute mix: every
	// 50th request a trace, every 8th a clean original. The seed picks
	// owners and documents, not how the slow requests cluster.
	case s.seq%50 == 49:
		it.Kind, it.Doc = kTrace, s.c.leak[o]
	case s.seq%8 == 7:
		it.Doc, it.Clean = s.c.clean[o], true
	default:
		it.Doc = s.rng.Intn(embeds)
	}
	s.seq++
	return it
}
