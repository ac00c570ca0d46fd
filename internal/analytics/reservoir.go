package analytics

import (
	"slices"

	"repro/internal/flowrec"
)

// Deterministic RTT sampling. Storing every per-flow minimum RTT of a
// service-day is unbounded at production scale, but keeping "the first
// rttCap samples" biases Figure 10's CDFs toward early-morning flows
// (whatever the probe exported first). Instead each flow gets a
// seed-free 64-bit hash of its identity, and a service-day keeps the
// rttCap flows with the *smallest* hashes — a bottom-k reservoir. The
// hash is independent of the RTT value and uniform over flows, so the
// kept set is an unbiased uniform sample; and because it depends only
// on flow identity, the same records produce the same sample in any
// arrival order, on any worker count, on every run.

// rttSample pairs a flow's sampling hash with its RTT value.
type rttSample struct {
	hash uint64
	ms   float64
}

// less orders samples by (hash, ms) so the reservoir is total-ordered
// even across hash collisions.
func (a rttSample) less(b rttSample) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.ms < b.ms
}

// cmp is less as a three-way comparison, for slices.SortFunc.
func (a rttSample) cmp(b rttSample) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// rttReservoir is a bottom-k reservoir: a max-heap of the cap smallest
// samples seen so far.
type rttReservoir struct {
	cap  int
	heap []rttSample // max-heap by (hash, ms)
	seen uint64
}

func newRTTReservoir(cap int) *rttReservoir {
	return &rttReservoir{cap: cap}
}

// add offers one sample.
func (r *rttReservoir) add(s rttSample) {
	r.seen++
	if len(r.heap) < r.cap {
		r.heap = append(r.heap, s)
		r.up(len(r.heap) - 1)
		return
	}
	if !s.less(r.heap[0]) {
		return // larger than the current worst kept sample
	}
	r.heap[0] = s
	r.down(0)
}

func (r *rttReservoir) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.heap[parent].less(r.heap[i]) {
			return
		}
		r.heap[parent], r.heap[i] = r.heap[i], r.heap[parent]
		i = parent
	}
}

func (r *rttReservoir) down(i int) {
	n := len(r.heap)
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < n && r.heap[big].less(r.heap[l]) {
			big = l
		}
		if rr < n && r.heap[big].less(r.heap[rr]) {
			big = rr
		}
		if big == i {
			return
		}
		r.heap[i], r.heap[big] = r.heap[big], r.heap[i]
		i = big
	}
}

// values returns the kept RTTs sorted by (hash, ms) — a canonical
// order, so the output is byte-identical regardless of record order.
// The heap is consumed: the reservoir must not be offered samples
// afterwards.
func (r *rttReservoir) values() []float64 {
	slices.SortFunc(r.heap, rttSample.cmp)
	out := make([]float64, len(r.heap))
	for i, s := range r.heap {
		out[i] = s.ms
	}
	return out
}

// partial exports the reservoir as its mergeable form: parallel
// (hash, ms) arrays in canonical (hash, ms) order, plus cap and the
// offered-sample count. The heap is consumed, like values.
func (r *rttReservoir) partial() *RTTPartial {
	slices.SortFunc(r.heap, rttSample.cmp)
	p := &RTTPartial{
		Cap:  r.cap,
		Seen: r.seen,
		Hash: make([]uint64, len(r.heap)),
		Ms:   make([]float64, len(r.heap)),
	}
	for i, s := range r.heap {
		p.Hash[i] = s.hash
		p.Ms[i] = s.ms
	}
	return p
}

// flowSampleHash derives the seed-free sampling hash from a record's
// flow identity, packed into three words with a murmur-style
// finalizer round between each. Every field is part of what makes a
// flow distinct; none correlates with its RTT, which is what makes
// the sample fair.
func flowSampleHash(rec *flowrec.Record) uint64 {
	cli := uint64(rec.Client[0])<<24 | uint64(rec.Client[1])<<16 | uint64(rec.Client[2])<<8 | uint64(rec.Client[3])
	srv := uint64(rec.Server[0])<<24 | uint64(rec.Server[1])<<16 | uint64(rec.Server[2])<<8 | uint64(rec.Server[3])
	h := 0x9e3779b97f4a7c15 ^ (cli<<32 | srv)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h ^= uint64(rec.CliPort)<<48 | uint64(rec.SrvPort)<<32 | uint64(rec.SubID)
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	h ^= uint64(rec.Start.UnixMilli())
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
