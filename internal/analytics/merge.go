package analytics

// Mergeable day aggregates. The paper's stage one is a parallel
// reduction over 247 billion records on a Hadoop cluster — which only
// works because the per-day summary is a monoid: any subset of a day's
// records can be reduced independently and the partial results merged,
// in any order and any grouping, into the same final aggregate. This
// file is that monoid for DayAgg: NewPartial is the identity, Merge
// the associative operation, Finish the projection onto the exported
// DayAgg schema. Every merge rule is order-independent by
// construction — counters add, key sets union, the RTT bottom-k
// reservoir re-trims after concatenation (bottom-k of a union is a
// function of the per-part bottom-ks) — so any grouping of a day's
// records (a spill run, an ingest checkpoint, a K-way client-hash
// split) reduces to bytes identical to the one-aggregator fold.
// merge_test.go holds the property tests.

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// RTTPartial is the mergeable form of one service-day's RTT bottom-k
// reservoir. DayAgg.RTTMinMs alone cannot merge — once two parts are
// both at cap, deciding which samples survive needs the sampling
// hashes — so the partial carries them: parallel Hash/Ms arrays sorted
// by (hash, ms), trimmed to Cap. Seen counts every sample offered,
// kept or not.
type RTTPartial struct {
	Cap  int
	Seen uint64
	Hash []uint64
	Ms   []float64
}

// merge folds q into p: concatenate (both sides sorted), re-sort by
// merging, trim to cap. q is not modified.
func (p *RTTPartial) merge(q *RTTPartial) {
	p.Seen += q.Seen
	// Mixed caps only arise from hand-built partials; the merged
	// reservoir can only be as selective as its most selective input.
	if q.Cap > 0 && (p.Cap == 0 || q.Cap < p.Cap) {
		p.Cap = q.Cap
	}
	if len(q.Hash) == 0 {
		return
	}
	hash := make([]uint64, 0, len(p.Hash)+len(q.Hash))
	ms := make([]float64, 0, len(p.Hash)+len(q.Hash))
	i, j := 0, 0
	for i < len(p.Hash) && j < len(q.Hash) {
		if p.Hash[i] < q.Hash[j] || (p.Hash[i] == q.Hash[j] && p.Ms[i] <= q.Ms[j]) {
			hash, ms = append(hash, p.Hash[i]), append(ms, p.Ms[i])
			i++
		} else {
			hash, ms = append(hash, q.Hash[j]), append(ms, q.Ms[j])
			j++
		}
	}
	hash = append(hash, p.Hash[i:]...)
	ms = append(ms, p.Ms[i:]...)
	hash = append(hash, q.Hash[j:]...)
	ms = append(ms, q.Ms[j:]...)
	if p.Cap > 0 && len(hash) > p.Cap {
		hash, ms = hash[:p.Cap], ms[:p.Cap]
	}
	p.Hash, p.Ms = hash, ms
}

func (p *RTTPartial) clone() *RTTPartial {
	c := &RTTPartial{Cap: p.Cap, Seen: p.Seen}
	c.Hash = append([]uint64(nil), p.Hash...)
	c.Ms = append([]float64(nil), p.Ms...)
	return c
}

// Partial is one part of a day — a spill run, an ingest checkpoint: a
// DayAgg plus the reservoir state a byte-identical merge needs. It is
// gob-encodable, so the agg cache can persist partials and a later run
// merges them instead of re-reading the day.
type Partial struct {
	// Agg carries every DayAgg field except RTTMinMs, which only
	// Finish materialises (the merged reservoir defines it).
	Agg *DayAgg
	// RTT holds the per-service mergeable reservoirs.
	RTT map[classify.Service]*RTTPartial
}

// NewPartial returns the identity partial for day: merging it changes
// nothing, and Finish on it yields an empty (but fully materialised)
// DayAgg.
func NewPartial(day time.Time) *Partial {
	y, m, d := day.UTC().Date()
	return &Partial{Agg: &DayAgg{Day: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}}
}

// mShardMerges counts partials folded by MergePartials and the spill
// merge.
var mShardMerges = metrics.GetCounter("analytics.shard_merges")

// MergePartials folds a day's partials into the final DayAgg — the
// reduce step of the agg cache's partial-replay path (the ingester's
// hot-day checkpoints). The inputs are never mutated or aliased (Merge
// deep-copies), so cached partials stay reusable.
func MergePartials(day time.Time, parts []*Partial) (*DayAgg, error) {
	merged := NewPartial(day)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			return nil, err
		}
		mShardMerges.Inc()
	}
	return merged.Finish(), nil
}

// Partial finalises the aggregator into its mergeable form. Like
// Result, it materialises the internal ID-indexed accumulators — once
// per day, not per record — but keeps the RTT reservoirs as mergeable
// (hash, ms) pairs instead of projecting them to values. The
// aggregator is consumed: use either Partial or Result, not both
// (Result is Partial().Finish()).
func (a *Aggregator) Partial() *Partial {
	if a.finished {
		panic("analytics: Partial after Result")
	}
	a.finished = true
	agg := a.agg

	// Subscriptions: batch-allocate the SubDay and SvcUse backing
	// arrays, then size each PerSvc map to its exact touched count.
	agg.Subs = make(map[uint32]*SubDay, len(a.subs))
	subDays := make([]SubDay, len(a.subs))
	nUse := 0
	for _, sa := range a.subs {
		for id := range sa.perSvc {
			if sa.perSvc[id].touched {
				nUse++
			}
		}
	}
	uses := make([]SvcUse, nUse)
	si, ui := 0, 0
	for subID, sa := range a.subs {
		sd := &subDays[si]
		si++
		sd.Tech = sa.tech
		sd.Flows = sa.flows
		sd.Down = sa.down
		sd.Up = sa.up
		n := 0
		for id := range sa.perSvc {
			if sa.perSvc[id].touched {
				n++
			}
		}
		sd.PerSvc = make(map[classify.Service]*SvcUse, n)
		for id := range sa.perSvc {
			if u := &sa.perSvc[id]; u.touched {
				use := &uses[ui]
				ui++
				use.Down = u.down
				use.Up = u.up
				sd.PerSvc[a.cls.ServiceName(classify.ServiceID(id))] = use
			}
		}
		agg.Subs[subID] = sd
	}
	a.subs = nil

	// Per-service byte totals: every service any record classified to,
	// Unknown included.
	agg.ServiceBytes = make(map[classify.Service]uint64, a.nsvc)
	for id, touched := range a.svcTouched {
		if touched {
			agg.ServiceBytes[a.cls.ServiceName(classify.ServiceID(id))] = a.svcBytes[id]
		}
	}

	// Server inventory: expand each address's service bitset.
	agg.ServerIPs = make(map[wire.Addr]*IPInfo, len(a.ips))
	infos := make([]IPInfo, len(a.ips))
	ii := 0
	for addr, acc := range a.ips {
		info := &infos[ii]
		ii++
		info.Bytes = acc.bytes
		info.Services = make(map[classify.Service]bool, bits.OnesCount64(acc.svcs)+len(acc.over))
		for set := acc.svcs; set != 0; set &= set - 1 {
			id := classify.ServiceID(bits.TrailingZeros64(set))
			info.Services[a.cls.ServiceName(id)] = true
		}
		for id := range acc.over {
			info.Services[a.cls.ServiceName(id)] = true
		}
		agg.ServerIPs[addr] = info
	}
	a.ips = nil

	// Domain drill-down: the internal per-ID maps become the exported
	// inner maps directly — no copying.
	agg.DomainBytes = make(map[classify.Service]map[string]uint64, 8)
	for id, m := range a.domainBytes {
		if m != nil {
			agg.DomainBytes[a.cls.ServiceName(classify.ServiceID(id))] = m
		}
	}
	a.domainBytes = nil

	agg.Cols = a.cols
	agg.Sketches = a.sk
	a.sk = nil
	p := &Partial{Agg: agg}
	for id, res := range a.rtt {
		if res != nil {
			if p.RTT == nil {
				p.RTT = make(map[classify.Service]*RTTPartial, 6)
			}
			p.RTT[a.cls.ServiceName(classify.ServiceID(id))] = res.partial()
		}
	}
	a.rtt = nil
	return p
}

// Merge folds q into p. Both must describe the same day. q is never
// modified and p never aliases q's maps or slices afterwards, so a
// merged result stays valid when q is separately persisted or merged
// again. Merge is associative and commutative in every field except
// SubDay.Tech, where the first writer wins — irrelevant in practice
// because a subscription's records carry one technology.
func (p *Partial) Merge(q *Partial) error {
	if q == nil || q.Agg == nil {
		return nil
	}
	if p.Agg == nil {
		p.Agg = &DayAgg{Day: q.Agg.Day}
	}
	a, b := p.Agg, q.Agg
	if a.Day.IsZero() {
		a.Day = b.Day
	}
	if !b.Day.IsZero() && !a.Day.Equal(b.Day) {
		return fmt.Errorf("analytics: merge day mismatch: %s vs %s",
			a.Day.Format("2006-01-02"), b.Day.Format("2006-01-02"))
	}

	if len(b.Subs) > 0 && a.Subs == nil {
		a.Subs = make(map[uint32]*SubDay, len(b.Subs))
	}
	for id, sd := range b.Subs {
		dst := a.Subs[id]
		if dst == nil {
			dst = &SubDay{Tech: sd.Tech}
			a.Subs[id] = dst
		}
		dst.Flows += sd.Flows
		dst.Down += sd.Down
		dst.Up += sd.Up
		for svc, use := range sd.PerSvc {
			if dst.PerSvc == nil {
				dst.PerSvc = make(map[classify.Service]*SvcUse, len(sd.PerSvc))
			}
			du := dst.PerSvc[svc]
			if du == nil {
				du = &SvcUse{}
				dst.PerSvc[svc] = du
			}
			du.Down += use.Down
			du.Up += use.Up
		}
	}

	for i, v := range b.ProtoBytes {
		a.ProtoBytes[i] += v
	}
	for t := range b.DownBins {
		for i, v := range b.DownBins[t] {
			a.DownBins[t][i] += v
		}
	}

	if len(b.ServiceBytes) > 0 && a.ServiceBytes == nil {
		a.ServiceBytes = make(map[classify.Service]uint64, len(b.ServiceBytes))
	}
	for svc, v := range b.ServiceBytes {
		a.ServiceBytes[svc] += v
	}

	if len(b.ServerIPs) > 0 && a.ServerIPs == nil {
		a.ServerIPs = make(map[wire.Addr]*IPInfo, len(b.ServerIPs))
	}
	for addr, info := range b.ServerIPs {
		dst := a.ServerIPs[addr]
		if dst == nil {
			dst = &IPInfo{Services: make(map[classify.Service]bool, len(info.Services))}
			a.ServerIPs[addr] = dst
		}
		dst.Bytes += info.Bytes
		if dst.Services == nil && len(info.Services) > 0 {
			dst.Services = make(map[classify.Service]bool, len(info.Services))
		}
		for svc, ok := range info.Services {
			if ok {
				dst.Services[svc] = true
			}
		}
	}

	if len(b.DomainBytes) > 0 && a.DomainBytes == nil {
		a.DomainBytes = make(map[classify.Service]map[string]uint64, len(b.DomainBytes))
	}
	for svc, doms := range b.DomainBytes {
		dst := a.DomainBytes[svc]
		if dst == nil {
			dst = make(map[string]uint64, len(doms))
			a.DomainBytes[svc] = dst
		}
		for dom, v := range doms {
			dst[dom] += v
		}
	}

	if len(b.QUICVersions) > 0 && a.QUICVersions == nil {
		a.QUICVersions = make(map[string]uint64, len(b.QUICVersions))
	}
	for ver, n := range b.QUICVersions {
		a.QUICVersions[ver] += n
	}

	// Sketches merge ahead of the scalar adds because the identity
	// rules need the pre-add Flows counts to tell an empty part from a
	// non-empty exact one.
	switch {
	case b.Sketches == nil && b.Flows == 0:
		// Merging an identity/empty partial changes nothing.
	case a.Sketches == nil && a.Flows == 0:
		// An identity partial adopts the other side's mode.
		a.Sketches = b.Sketches.Clone()
	case a.Sketches != nil && b.Sketches != nil:
		a.Sketches.Merge(b.Sketches)
	default:
		// One non-empty side is exact, the other sketched: the union
		// cannot be summarised faithfully, so drop the sketches rather
		// than silently under-count.
		a.Sketches = nil
	}

	a.TotalDown += b.TotalDown
	a.TotalUp += b.TotalUp
	a.Flows += b.Flows
	// The merged aggregate is only as wide as its narrowest input
	// (zero means all columns — the identity partial narrows nothing).
	a.Cols = a.Cols.Norm() & b.Cols.Norm()

	for svc, rq := range q.RTT {
		if p.RTT == nil {
			p.RTT = make(map[classify.Service]*RTTPartial, len(q.RTT))
		}
		rp := p.RTT[svc]
		if rp == nil {
			p.RTT[svc] = rq.clone()
			continue
		}
		rp.merge(rq)
	}
	return nil
}

// Finish projects the partial onto the exported DayAgg schema:
// reservoirs materialise into RTTMinMs and every map is non-nil, so a
// merged (or gob round-tripped) partial yields the same shape the
// single-fold Result produces. The partial is consumed — its Agg is
// returned, not copied.
func (p *Partial) Finish() *DayAgg {
	agg := p.Agg
	if agg == nil {
		agg = &DayAgg{}
		p.Agg = agg
	}
	if agg.Subs == nil {
		agg.Subs = make(map[uint32]*SubDay)
	}
	if agg.ServiceBytes == nil {
		agg.ServiceBytes = make(map[classify.Service]uint64)
	}
	if agg.ServerIPs == nil {
		agg.ServerIPs = make(map[wire.Addr]*IPInfo)
	}
	if agg.DomainBytes == nil {
		agg.DomainBytes = make(map[classify.Service]map[string]uint64)
	}
	if agg.QUICVersions == nil {
		agg.QUICVersions = make(map[string]uint64)
	}
	agg.RTTMinMs = make(map[classify.Service][]float64, len(p.RTT))
	for svc, r := range p.RTT {
		ms := make([]float64, len(r.Ms))
		copy(ms, r.Ms)
		agg.RTTMinMs[svc] = ms
	}
	return agg
}
