// Package analytics implements the paper's two-stage processing
// (section 2.2): stage one reduces each day's raw flow records to a
// compact per-day aggregate — per-subscription counters, per-service
// counters, protocol bytes, RTT samples, server-address inventories —
// and stage two (figures.go) turns slices of those aggregates into
// every table and figure of the evaluation. Days are independent, so
// stage one runs them in parallel, standing in for the Hadoop/Spark
// cluster, and within a day the store decodes blocks in parallel.
package analytics

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/wire"
)

// P2PService is the label used for peer-to-peer traffic, which carries
// no domain and is recognised by the probe's payload heuristics.
const P2PService = classify.P2P

// Activity thresholds of section 3: a subscriber is active on a day
// when it generated at least 10 flows, downloaded more than 15 kB and
// uploaded more than 5 kB.
const (
	ActiveMinFlows = 10
	ActiveMinDown  = 15 << 10
	ActiveMinUp    = 5 << 10
)

// SubDay is one subscription's day.
type SubDay struct {
	Tech  flowrec.AccessTech
	Flows int
	Down  uint64
	Up    uint64
	// PerSvc accumulates the subscriber's traffic toward each
	// classified service.
	PerSvc map[classify.Service]*SvcUse
}

// SvcUse is a subscriber's daily traffic with one service.
type SvcUse struct {
	Down, Up uint64
}

// Active applies the section 3 filter.
func (s *SubDay) Active() bool {
	return s.Flows >= ActiveMinFlows && s.Down > ActiveMinDown && s.Up > ActiveMinUp
}

// TimeBinCount is the number of 10-minute bins per day (Figure 4).
const TimeBinCount = 144

// IPInfo tracks which services touched a server address on a day.
type IPInfo struct {
	Services map[classify.Service]bool
	Bytes    uint64
}

// rttCap bounds stored RTT samples per service-day. Over-cap days keep
// a deterministic hash-based uniform sample (see reservoir.go), not
// the first rttCap flows.
const rttCap = 60000

// DayAgg is the stage-one output for one day.
type DayAgg struct {
	Day  time.Time
	Subs map[uint32]*SubDay

	// ProtoBytes sums two-way bytes per probe protocol label.
	ProtoBytes [flowrec.WebProtoCount]uint64

	// DownBins holds downloaded bytes per 10-minute bin, per tech
	// (index 0 ADSL, 1 FTTH).
	DownBins [2][TimeBinCount]uint64

	// ServiceBytes sums downloaded bytes per service (Unknown keyed
	// by the empty service).
	ServiceBytes map[classify.Service]uint64

	// RTTMinMs holds per-flow minimum RTT samples in milliseconds for
	// the services Figure 10 examines.
	RTTMinMs map[classify.Service][]float64

	// ServerIPs inventories the day's server addresses (Figure 11).
	ServerIPs map[wire.Addr]*IPInfo

	// DomainBytes sums downloaded bytes per (service, second-level
	// domain) for Figure 11g-i.
	DomainBytes map[classify.Service]map[string]uint64

	// QUICVersions counts QUIC flows per gQUIC version tag (the
	// per-protocol drill-down the paper leaves out for brevity).
	QUICVersions map[string]uint64

	// TotalDown/TotalUp are whole-day byte sums.
	TotalDown, TotalUp uint64
	Flows              uint64

	// Cols records the column set this aggregate was built from (zero
	// means all columns — aggregates predating column gating). core
	// counts a cached aggregate only when its Cols cover
	// AggregateColumns; a narrower one is a miss. Cols is bookkeeping,
	// not data: CanonicalBytes deliberately excludes it.
	Cols flowrec.ColumnSet
}

// rttServices are the Figure 10 subjects.
var rttServices = map[classify.Service]bool{
	"Facebook": true, "Instagram": true, "YouTube": true, "Google": true,
	"Netflix": true, "WhatsApp": true,
}

// memoCap bounds the per-aggregator name→ID memo. A day file repeats a
// few hundred distinct server names across millions of records; the
// cap only matters against adversarial name churn.
const memoCap = 1 << 16

// subAcc is the internal per-subscription accumulator: service usage
// lives in a dense ID-indexed slice instead of a map.
type subAcc struct {
	tech     flowrec.AccessTech
	flows    int
	down, up uint64
	perSvc   []svcUse
}

// svcUse mirrors SvcUse plus a touched bit, so Result can reproduce
// the exact key set map-based accumulation would have created (a key
// appears once any flow classifies to the service, even at 0 bytes).
type svcUse struct {
	down, up uint64
	touched  bool
}

// ipAcc is the internal per-server-address accumulator. The service
// set is a bitset for IDs < 64 — which covers any realistic rule set —
// with a lazily-allocated spill map beyond that, so the common case
// costs no allocation at all.
type ipAcc struct {
	bytes uint64
	svcs  uint64
	over  map[classify.ServiceID]struct{}
}

// Aggregator reduces one day's records. Not safe for concurrent use;
// the Runner gives each day its own — which is exactly why it can keep
// a private, unsynchronized name→ID memo and never touch the
// classifier's global RWMutex on the per-record path.
type Aggregator struct {
	cls  *classify.Classifier
	agg  *DayAgg
	nsvc int

	p2pID classify.ServiceID
	memo  map[string]classify.ServiceID // raw ServerName → ID, no locks

	subs        map[uint32]*subAcc
	svcBytes    []uint64
	svcTouched  []bool
	domainBytes []map[string]uint64
	ips         map[wire.Addr]ipAcc

	// rtt holds the per-service sampling reservoirs; Result
	// materialises them into agg.RTTMinMs.
	rtt      []*rttReservoir
	rttWant  []bool
	finished bool

	// cols is the column contract this aggregator was built for;
	// accumulators whose input columns are outside it stay off (see
	// the want* gates). Always normalised: never zero.
	cols flowrec.ColumnSet
	// Per-accumulator gates, derived from cols once at construction so
	// Add pays plain bool tests, not bit arithmetic.
	wantSubs, wantBins, wantRTT, wantIPs, wantQUIC bool
}

// NewAggregator starts an aggregation for day using classifier cls
// (nil means classify.Default()), with every accumulator on.
func NewAggregator(day time.Time, cls *classify.Classifier) *Aggregator {
	return NewAggregatorCols(day, cls, 0)
}

// NewAggregatorCols starts an aggregation that only feeds the
// accumulators whose input columns are inside cols (zero means all
// columns). Gating is the column-pruning contract's other half: a
// record decoded from a pruned v3 scan carries zero values in the
// unrequested fields, and a v1 record carries real ones — gating off
// the accumulators that would read them makes the two byte-identical.
func NewAggregatorCols(day time.Time, cls *classify.Classifier, cols flowrec.ColumnSet) *Aggregator {
	if cls == nil {
		cls = classify.Default()
	}
	y, m, d := day.UTC().Date()
	nsvc := cls.NumServices()
	a := &Aggregator{
		cls:         cls,
		nsvc:        nsvc,
		memo:        make(map[string]classify.ServiceID, 512),
		subs:        make(map[uint32]*subAcc),
		svcBytes:    make([]uint64, nsvc),
		svcTouched:  make([]bool, nsvc),
		domainBytes: make([]map[string]uint64, nsvc),
		ips:         make(map[wire.Addr]ipAcc),
		rtt:         make([]*rttReservoir, nsvc),
		rttWant:     make([]bool, nsvc),
		agg: &DayAgg{
			Day: time.Date(y, m, d, 0, 0, 0, 0, time.UTC),
		},
	}
	a.p2pID, _ = cls.IDOf(classify.P2P) // always interned
	for svc := range rttServices {
		if id, ok := cls.IDOf(svc); ok {
			a.rttWant[id] = true
		}
	}
	a.cols = NormalizeCols(cols)
	a.wantSubs = a.cols.Has(flowrec.ColSubID)
	a.wantBins = a.cols.Has(flowrec.ColStart)
	a.wantRTT = a.cols.Covers(ColsRTT)
	a.wantIPs = a.cols.Has(flowrec.ColServer)
	a.wantQUIC = a.cols.Has(flowrec.ColQUICVer)
	return a
}

// ServiceOf classifies a record: P2P by probe label, everything else
// by server name.
func ServiceOf(cls *classify.Classifier, rec *flowrec.Record) classify.Service {
	if rec.Web == flowrec.WebP2P {
		return P2PService
	}
	return cls.Lookup(rec.ServerName)
}

// serviceIDOf is ServiceOf on the memoized fast path.
func (a *Aggregator) serviceIDOf(rec *flowrec.Record) classify.ServiceID {
	if rec.Web == flowrec.WebP2P {
		return a.p2pID
	}
	if rec.ServerName == "" {
		return classify.UnknownID
	}
	if id, ok := a.memo[rec.ServerName]; ok {
		return id
	}
	id := a.cls.LookupID(rec.ServerName)
	if len(a.memo) < memoCap {
		a.memo[rec.ServerName] = id
	}
	return id
}

// Add accumulates one record. Accumulators whose input columns are
// outside the aggregator's column contract are skipped — their inputs
// may be pruned-away zero values, and half-real accumulation would be
// silently wrong rather than obviously absent.
func (a *Aggregator) Add(rec *flowrec.Record) {
	agg := a.agg
	id := a.serviceIDOf(rec)

	if a.wantSubs {
		sa := a.subs[rec.SubID]
		if sa == nil {
			sa = &subAcc{tech: rec.Tech}
			sa.perSvc = make([]svcUse, a.nsvc)
			a.subs[rec.SubID] = sa
		}
		sa.flows++
		sa.down += rec.BytesDown
		sa.up += rec.BytesUp
		if id != classify.UnknownID {
			use := &sa.perSvc[id]
			use.touched = true
			use.down += rec.BytesDown
			use.up += rec.BytesUp
		}
	}

	agg.TotalDown += rec.BytesDown
	agg.TotalUp += rec.BytesUp
	agg.Flows++
	agg.ProtoBytes[rec.Web] += rec.BytesDown + rec.BytesUp
	a.svcBytes[id] += rec.BytesDown
	a.svcTouched[id] = true

	if a.wantQUIC && rec.Web == flowrec.WebQUIC && rec.QUICVer != "" {
		if agg.QUICVersions == nil {
			agg.QUICVersions = make(map[string]uint64)
		}
		agg.QUICVersions[rec.QUICVer]++
	}

	if a.wantBins {
		bin := timeBin(rec.Start)
		tech := 0
		if rec.Tech == flowrec.TechFTTH {
			tech = 1
		}
		agg.DownBins[tech][bin] += rec.BytesDown
	}

	if a.wantRTT && rec.RTTSamples > 0 && a.rttWant[id] {
		res := a.rtt[id]
		if res == nil {
			res = newRTTReservoir(rttCap)
			a.rtt[id] = res
		}
		res.add(rttSample{
			hash: flowSampleHash(rec),
			ms:   float64(rec.RTTMin) / float64(time.Millisecond),
		})
	}

	// Server inventory: only classified, non-P2P services are worth
	// tracking (P2P "servers" are other households), but unknown
	// services still mark addresses as shared.
	if a.wantIPs && id != a.p2pID && rec.Web != flowrec.WebDNS && rec.Web != flowrec.WebOther {
		acc := a.ips[rec.Server]
		if id < 64 {
			acc.svcs |= 1 << id
		} else {
			if acc.over == nil {
				acc.over = make(map[classify.ServiceID]struct{}, 1)
			}
			acc.over[id] = struct{}{}
		}
		acc.bytes += rec.BytesDown
		a.ips[rec.Server] = acc

		if id != classify.UnknownID && rec.ServerName != "" {
			dom := SecondLevelDomain(rec.ServerName)
			m := a.domainBytes[id]
			if m == nil {
				m = make(map[string]uint64, 4)
				a.domainBytes[id] = m
			}
			m[dom] += rec.BytesDown
		}
	}
}

// Result finalises and returns the aggregate. The ID-indexed internal
// accumulators materialise here — once per day, not once per record —
// into the exported string-keyed DayAgg maps, with exactly the key
// sets map-based accumulation produced, so figures, the gob agg-cache
// and CSV export see an unchanged schema. RTT reservoirs materialise
// in canonical (hash) order, so equal record sets yield byte-identical
// aggregates whatever the order they arrived in. Result is the
// one-part special case of the mergeable form: Partial().Finish()
// (see merge.go).
func (a *Aggregator) Result() *DayAgg {
	if a.finished {
		return a.agg
	}
	return a.Partial().Finish()
}

// timeBin maps a timestamp to its 10-minute bin.
func timeBin(t time.Time) int {
	t = t.UTC()
	return (t.Hour()*60 + t.Minute()) / 10
}

// SecondLevelDomain trims a host name to its registrable-ish tail:
// the last two labels ("scontent.xx.fbcdn.net" → "fbcdn.net"). The
// handful of two-level public suffixes in our data (co.uk-style) do
// not occur, so two labels suffice, as in the paper's Figure 11g-i.
// The result is a substring of the (lowercased) input: zero
// allocations on the already-lowercase names probes export.
func SecondLevelDomain(host string) string {
	host = strings.TrimSuffix(strings.ToLower(host), ".")
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	prev := strings.LastIndexByte(host[:last], '.')
	if prev < 0 {
		return host
	}
	return host[prev+1:]
}

// ActiveSubs counts subscriptions passing the activity filter, per
// technology.
func (d *DayAgg) ActiveSubs() (adsl, ftth int) {
	for _, sd := range d.Subs {
		if !sd.Active() {
			continue
		}
		if sd.Tech == flowrec.TechFTTH {
			ftth++
		} else {
			adsl++
		}
	}
	return
}

// ObservedSubs counts all subscriptions seen, per technology.
func (d *DayAgg) ObservedSubs() (adsl, ftth int) {
	for _, sd := range d.Subs {
		if sd.Tech == flowrec.TechFTTH {
			ftth++
		} else {
			adsl++
		}
	}
	return
}

// Source supplies raw records for a day. Implementations: the on-disk
// store (StoreSource), or a simulation world directly (FuncSource,
// wired in core).
type Source interface {
	// Records streams the records of one day that match sc.Pred, with
	// at least the columns of sc.Cols populated (zero Cols means all of
	// them); delivering more columns is fine — pruning is an
	// optimisation, the aggregator's column gating is the correctness
	// boundary. The read stops with ctx's error within a few thousand
	// records of ctx being done. A day with no data returns ErrNoData
	// (probe outage); stage one skips it.
	Records(ctx context.Context, day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record)) error
}

// ErrNoData marks a missing day — the probe outages of section 2.3.
var ErrNoData = errors.New("analytics: no data for day")

// Stage-one observability: per-day wall times, throughput and the
// occupancy of the worker pool. These are what let an operator spot
// the straggler day or the shrinking pool the paper's section 2.3
// outages would cause.
var (
	mStage1DayWall   = metrics.GetTimer("stage1.day_wall")
	mStage1Days      = metrics.GetCounter("stage1.days_done")
	mStage1Skipped   = metrics.GetCounter("stage1.days_skipped")
	mStage1Failed    = metrics.GetCounter("stage1.days_failed")
	mStage1Records   = metrics.GetCounter("stage1.records")
	mStage1Workers   = metrics.GetGauge("stage1.workers")
	mStage1Occupancy = metrics.GetGauge("stage1.occupancy_pct")
)

// DayError pairs one day with the error that kept it out of a result —
// the per-day error report a degraded run hands back instead of dying.
type DayError struct {
	Day time.Time
	Err error
}

func (d DayError) Error() string {
	return fmt.Sprintf("%s: %v", d.Day.Format("2006-01-02"), d.Err)
}

// Unwrap lets errors.Is/As see through to the cause.
func (d DayError) Unwrap() error { return d.Err }

// RunConfig parameterises RunReport beyond the day list.
type RunConfig struct {
	// Workers bounds pool parallelism; <=0 means 4.
	Workers int
	// DecodeWidth is how many goroutines decode one day's v3 blocks —
	// the within-day parallelism the paper gets from its Hadoop
	// reduction. Decoded blocks reach the day's one aggregator in file
	// order, so the fold sees the same record sequence at any width and
	// results are byte-identical for any value. 0 means GOMAXPROCS; 1
	// decodes serially. It is deliberately not sized from the day
	// count: the straggler case has more days than cores, just unequal
	// ones.
	DecodeWidth int
	// Retry re-runs a day whose source failed transiently (fresh
	// aggregator per attempt — a half-fed aggregator is never
	// reused). The zero policy tries each day exactly once.
	Retry retry.Policy
	// DayTimeout caps one day's aggregation (all its attempts
	// together). Zero means no per-day deadline.
	DayTimeout time.Duration
	// Cols is the column contract for the run: sources that support
	// column projection (a columnar store) decode only these columns,
	// and the aggregator gates its accumulators to match, so results
	// are byte-identical whether or not the source actually prunes.
	// Zero means all columns.
	Cols flowrec.ColumnSet
}

// Run aggregates the given days with a bounded pool of workers
// goroutines (<=0 means 4) pulling from a shared day index — the pool
// is the only goroutine cost no matter how many days are asked for
// (a Stride:1 full span is ~1975 of them). Days with no data are
// silently skipped — exactly how the paper's plots carry gaps across
// probe outages. The result is sorted by day. Any day error fails the
// whole call; RunReport is the degrading variant.
func Run(src Source, days []time.Time, cls *classify.Classifier, workers int) ([]*DayAgg, error) {
	aggs, dayErrs, err := RunReport(context.Background(), src, days, cls, RunConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	if len(dayErrs) > 0 {
		return nil, dayErrs[0].Err
	}
	return aggs, nil
}

// RunReport is stage one hardened for a five-year unattended run: days
// aggregate in parallel under ctx, each day retried per cfg.Retry when
// its source fails transiently and bounded by cfg.DayTimeout. A day
// that still fails is reported in the second return value while every
// other day completes — the caller chooses between strict (treat any
// DayError as fatal) and degraded (partial figures plus the report)
// semantics. The error return is reserved for ctx itself: when the
// parent context is cancelled the whole run aborts and no partial
// result is returned.
func RunReport(ctx context.Context, src Source, days []time.Time, cls *classify.Classifier, cfg RunConfig) ([]*DayAgg, []DayError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > len(days) {
		workers = len(days)
	}
	if len(days) == 0 {
		return nil, nil, ctx.Err()
	}
	width := cfg.DecodeWidth
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	type result struct {
		agg *DayAgg
		err error
	}
	results := make([]result, len(days))
	busy := make([]time.Duration, workers)

	mStage1Workers.Set(int64(workers))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return // cancelled: stop pulling days
				}
				i := int(next.Add(1)) - 1
				if i >= len(days) {
					return
				}
				day := days[i]
				t0 := time.Now()
				agg, err := runDay(ctx, src, day, cls, cfg, width)
				elapsed := time.Since(t0)
				busy[w] += elapsed
				mStage1DayWall.ObserveDuration(elapsed)
				if err != nil {
					if errors.Is(err, ErrNoData) {
						mStage1Skipped.Inc() // probe outage: leave the gap
						continue
					}
					mStage1Failed.Inc()
					results[i] = result{err: fmt.Errorf("analytics: day %s: %w", day.Format("2006-01-02"), err)}
					continue
				}
				mStage1Days.Inc()
				mStage1Records.Add(agg.Flows)
				results[i] = result{agg: agg}
			}
		}(w)
	}
	wg.Wait()

	// Occupancy: how much of the pool's wall-clock capacity did real
	// aggregation work fill. Low numbers mean stragglers or an
	// undersized day list, not a faster run.
	if wall := time.Since(start); wall > 0 {
		var total time.Duration
		for _, b := range busy {
			total += b
		}
		mStage1Occupancy.Set(int64(float64(total) / (float64(wall) * float64(workers)) * 100))
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var out []*DayAgg
	var dayErrs []DayError
	for i, r := range results {
		if r.err != nil {
			dayErrs = append(dayErrs, DayError{Day: days[i], Err: r.err})
			continue
		}
		if r.agg != nil {
			out = append(out, r.agg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day.Before(out[j].Day) })
	sort.Slice(dayErrs, func(i, j int) bool { return dayErrs[i].Day.Before(dayErrs[j].Day) })
	return out, dayErrs, nil
}

// runDay aggregates one day under its deadline and retry policy: the
// source decodes the day's blocks width-wide and delivers them in file
// order to one aggregator. Every attempt starts a fresh aggregator: a
// partially-fed one must never leak half a day into the result.
func runDay(ctx context.Context, src Source, day time.Time, cls *classify.Classifier, cfg RunConfig, width int) (*DayAgg, error) {
	dctx := ctx
	if cfg.DayTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, cfg.DayTimeout)
		defer cancel()
	}
	var agg *DayAgg
	err := cfg.Retry.Do(dctx, uint64(day.Unix()), func() error {
		a := NewAggregatorCols(day, cls, cfg.Cols)
		if rerr := src.Records(dctx, day, scanFor(cfg.Cols, width), a.Add); rerr != nil {
			return rerr
		}
		agg = a.Result()
		return nil
	})
	if err != nil {
		// A blown per-day deadline is this day's failure, not the whole
		// run's — unless the parent is what actually died.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return agg, nil
}
