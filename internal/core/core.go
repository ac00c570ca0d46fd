// Package core ties the reproduction together: it wires the simulated
// ISP (the dataset substitute), the probe, the flow store, the
// classifier and the analytics into a Pipeline, and exposes the
// experiment registry — one entry per table and figure of the paper —
// that cmd/edgereport, the benchmarks and the examples all share.
//
// The pipeline is hardened for unattended runs the way the paper's
// five-year deployment had to be: every experiment takes a
// context.Context (cancellation and per-day deadlines), transient
// storage errors retry with capped, deterministically-jittered
// backoff, and in Degrade mode a damaged day is quarantined and
// reported per-day (Pipeline.DayErrors) while every healthy day still
// lands in the figures.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/asn"
	"repro/internal/classify"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// Pipeline cache observability: the memory cache serves experiments
// sharing day windows, the disk cache serves repeated runs. Misses are
// what stage one actually has to compute. store.retries counts
// re-attempts after transient storage faults; store.quarantined_days
// (owned by flowrec) counts corrupt days moved out of the read path.
var (
	mMemHits      = metrics.GetCounter("aggcache.mem_hits")
	mMemMisses    = metrics.GetCounter("aggcache.mem_misses")
	mDiskHits     = metrics.GetCounter("aggcache.disk_hits")
	mDiskMisses   = metrics.GetCounter("aggcache.disk_misses")
	mPartialHits  = metrics.GetCounter("aggcache.partial_hits")
	mGenDayWall   = metrics.GetTimer("store_gen.day_wall")
	mGenRecords   = metrics.GetCounter("store_gen.records")
	mStoreRetries = metrics.GetCounter("store.retries")
	mDegradedDays = metrics.GetCounter("pipeline.degraded_days")
	mHotDayServes = metrics.GetCounter("pipeline.hot_day_serves")
)

// Config parameterises a Pipeline.
type Config struct {
	// Seed drives the simulation; equal seeds give identical datasets.
	Seed uint64
	// Scale sets the subscriber population (zero fields use defaults).
	Scale simnet.Scale
	// Stride is the day-sampling stride for full-span experiments:
	// 1 processes every day of the 54 months, 7 (the default) one day
	// per week.
	Stride int
	// Workers bounds stage-one parallelism; 0 means GOMAXPROCS.
	Workers int
	// ShardsPerDay is the per-day block-decode width: how many
	// goroutines decode one day's v3 blocks for stage one — within-day
	// parallelism on top of the across-day worker pool. Blocks reach
	// the day's one aggregator in file order, so results are
	// byte-identical for any value. 0 means GOMAXPROCS; 1 decodes
	// serially. Exposed as -shards on the binaries.
	ShardsPerDay int
	// Store, when set, reads flow records from an on-disk lake
	// instead of generating them on the fly. Days missing from the
	// store are treated as probe outages.
	Store *flowrec.Store
	// Classifier overrides the built-in domain→service rules (for
	// curated rule files loaded with classify.ParseRules). Nil means
	// classify.Default().
	Classifier *classify.Classifier
	// AggCacheDir, when set, persists per-day aggregates to disk
	// (checksummed framefile frames) so later runs skip stage one for
	// days already reduced — the materialised-aggregate workflow of
	// section 2.2.
	AggCacheDir string
	// RollupDir, when set, enables the multi-resolution rollup tier:
	// week/month/year windows pre-folded through the merge monoid are
	// persisted here and long-span experiments answer from the
	// coarsest tier that fits instead of re-folding every day. Exposed
	// as -rollup on the binaries.
	RollupDir string
	// MemBudget bounds stage one's live accumulator memory per day in
	// bytes (an accounting estimate). Over budget, a day's aggregator
	// seals its state into a
	// partial, spills it to disk and restarts empty; spilled partials
	// external-merge after the scan with results byte-identical to the
	// unbounded run. 0 (the default) disables spilling. Exposed as
	// -memlimit on the binaries.
	MemBudget int64
	// SpillDir is where over-budget partials spill (a private temp
	// directory per day attempt is created beneath it). Empty means
	// the OS temp dir.
	SpillDir string
	// SpillFanIn bounds how many spill files one external-merge pass
	// opens; 0 means the analytics default. Any value produces
	// byte-identical results — it only trades merge passes for peak
	// open partials.
	SpillFanIn int
	// Sketch switches day aggregation into sketch mode: each day (and
	// therefore each rollup) additionally carries mergeable sketches —
	// HyperLogLog distinct clients/server IPs, SpaceSaving service and
	// domain heavy hitters, t-digest RTT quantiles — trading bounded
	// approximation error for constant-size window summaries. Exact
	// mode (the default) leaves figures byte-identical to the seed.
	Sketch bool

	// Storage overrides the Store/AggCacheDir wiring with an explicit
	// storage backend — how tests interpose the fault injector. When
	// set, flow records are read through it; the aggregate cache is
	// still gated on AggCacheDir being non-empty.
	Storage Storage
	// Degrade switches day-level failures from fatal to partial: the
	// failed day is reported via DayErrors (and quarantined when the
	// error is corruption), every other day completes. Off, any day
	// error fails the whole call — the strict default mirrors the
	// historical behaviour.
	Degrade bool
	// Retry is the backoff discipline for transient storage faults.
	// The zero value defaults to 3 attempts, 25ms base, 500ms cap.
	Retry retry.Policy
	// DayTimeout bounds one day's aggregation (all retry attempts
	// together). Zero means no per-day deadline.
	DayTimeout time.Duration
	// Faults, when set, injects the plan's faults into this
	// pipeline's storage and simulated emission — the chaos-suite
	// hook, also exposed as -faults on the binaries.
	Faults *faultinject.Plan
}

// Pipeline is the assembled system.
type Pipeline struct {
	cfg   Config
	World *simnet.World
	Cls   *classify.Classifier
	RIBs  *asn.RIBSet

	// storage is the wired (possibly fault-wrapped) backend; nil for
	// a pure simulation pipeline with no aggregate cache. fromStore
	// records whether flow records come from storage rather than the
	// world. retry is the composed policy (store.retries counting
	// included).
	storage   Storage
	fromStore bool
	retry     retry.Policy

	mu      sync.Mutex
	cache   map[time.Time]*aggEntry
	dayErrs map[time.Time]error
	// rollRows is the rollup tier's memory half (see windowStats).
	rollRows map[rollupKey]*rollupRows
}

// aggEntry is one day's slot in the in-memory aggregate cache. The
// caller that creates the slot owns computing it; anyone else arriving
// while done is open blocks on it instead of silently skipping the day
// (the old reservation scheme dropped in-flight days from concurrent
// callers' results, as if they were probe outages). After done closes,
// agg is the day's aggregate — nil meaning a real outage or a
// degraded-away failure — unless err is set, in which case the owner
// failed (or was cancelled) and removed the slot so a later call
// recomputes.
type aggEntry struct {
	done chan struct{}
	agg  *analytics.DayAgg
	err  error
	// stamp is the day's stamp, read before the aggregate was loaded or
	// computed. A resolved entry whose day's stamp has moved since is
	// evicted at claim time: the day mutated (WriteDay, quarantine,
	// compaction, a live-ingest checkpoint), so its bytes may no longer
	// match a fresh derivation. Other days' entries stay: a checkpoint
	// of the hot day leaves every sealed day in memory.
	stamp uint64
}

// resolved reports whether the entry's computation has finished. Only
// meaningful under p.mu for deciding eviction; waiters use e.done.
func (e *aggEntry) resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// New assembles a pipeline.
func New(cfg Config) *Pipeline {
	if cfg.Stride <= 0 {
		cfg.Stride = 7
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	w := simnet.NewWorld(cfg.Seed, cfg.Scale)
	cls := cfg.Classifier
	if cls == nil {
		cls = classify.Default()
	}

	fromStore := cfg.Storage != nil || cfg.Store != nil
	storage := cfg.Storage
	if storage == nil && (cfg.Store != nil || cfg.AggCacheDir != "" || cfg.RollupDir != "") {
		storage = NewDiskStorage(cfg.Store, cfg.AggCacheDir).WithRollupDir(cfg.RollupDir)
	}
	if cfg.Faults != nil && storage != nil {
		storage = faultinject.Wrap(storage, cfg.Faults)
	}

	pol := cfg.Retry
	if pol.Attempts <= 0 {
		pol = retry.Policy{Attempts: 3, Base: 25 * time.Millisecond, Max: 500 * time.Millisecond,
			Seed: cfg.Seed, Sleep: cfg.Retry.Sleep, OnRetry: cfg.Retry.OnRetry}
	}
	user := pol.OnRetry
	pol.OnRetry = func(attempt int, err error) {
		mStoreRetries.Inc()
		if user != nil {
			user(attempt, err)
		}
	}

	return &Pipeline{
		cfg:       cfg,
		World:     w,
		Cls:       cls,
		RIBs:      w.RIBs(),
		storage:   storage,
		fromStore: fromStore,
		retry:     pol,
		cache:     make(map[time.Time]*aggEntry),
		dayErrs:   make(map[time.Time]error),
		rollRows:  make(map[rollupKey]*rollupRows),
	}
}

// Stride returns the configured day-sampling stride.
func (p *Pipeline) Stride() int { return p.cfg.Stride }

// Storage returns the wired storage backend (fault wrapper included),
// or nil for a pure simulation pipeline.
func (p *Pipeline) Storage() Storage { return p.storage }

// FlowStore returns the underlying flowrec day store, or nil when the
// pipeline is simulation-fed (or wired through a custom Storage). The
// serve layer's admin compaction needs the store itself: compaction
// rewrites day files in place, which is below the Storage surface.
func (p *Pipeline) FlowStore() *flowrec.Store { return p.cfg.Store }

// Generation returns the lake generation (see Storage.Generation);
// 0 for a pure simulation pipeline, whose "lake" is a deterministic
// world that cannot mutate.
func (p *Pipeline) Generation() uint64 {
	if p.storage == nil {
		return 0
	}
	return p.storage.Generation()
}

// DayStamps reads the stamps of days, in order (see
// Storage.DayStamp); all 0, never changing, for a pure simulation
// pipeline.
func (p *Pipeline) DayStamps(days []time.Time) []uint64 {
	out := make([]uint64, len(days))
	if p.storage != nil {
		for i, d := range days {
			out[i] = p.storage.DayStamp(d)
		}
	}
	return out
}

// BumpGeneration advances the lake generation and drops the pipeline's
// in-memory tiers — resolved day aggregates and rollup rows — so the
// next call reloads them from storage. Mutations name their days
// through Storage.BumpDays and invalidate only those; this is the
// blunt form, which the benchmark's reload ladder times. The
// generation is 0 without storage.
func (p *Pipeline) BumpGeneration() uint64 {
	p.mu.Lock()
	for d, e := range p.cache {
		if e.resolved() {
			delete(p.cache, d)
		}
	}
	clear(p.rollRows)
	p.mu.Unlock()
	if p.storage == nil {
		return 0
	}
	return p.storage.BumpDays()
}

// faultPlan returns the configured plan as a simnet.FaultPlan,
// carefully nil when unset (a typed-nil interface would dodge the
// call-site nil checks).
func (p *Pipeline) faultPlan() simnet.FaultPlan {
	if p.cfg.Faults == nil {
		return nil
	}
	return p.cfg.Faults
}

// Source returns the record source experiments aggregate from: the
// storage backend when configured, the simulation world otherwise —
// either one filtered through the fault plan when chaos is on.
func (p *Pipeline) Source() analytics.Source {
	if p.fromStore {
		return analytics.StoreSource{Store: p.storage}
	}
	plan := p.faultPlan()
	return analytics.FuncSource(func(day time.Time, fn func(*flowrec.Record)) error {
		if !p.World.EmitDayFaults(day, plan, fn) {
			return analytics.ErrNoData // injected probe outage
		}
		return nil
	})
}

// DayErrors returns the per-day error report accumulated by degraded
// runs, sorted by day. Empty means every requested day either
// aggregated or was a genuine outage.
func (p *Pipeline) DayErrors() []analytics.DayError {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]analytics.DayError, 0, len(p.dayErrs))
	for d, err := range p.dayErrs {
		out = append(out, analytics.DayError{Day: d, Err: err})
	}
	sortDayErrors(out)
	return out
}

func sortDayErrors(errs []analytics.DayError) {
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j].Day.Before(errs[j-1].Day); j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
}

// Aggregate runs stage one for the given days, serving repeated days
// from an in-memory cache so experiments sharing windows (Figures 2,
// 4 and 10 all want April 2014/2017) pay once. Concurrent callers
// asking for overlapping windows each compute a disjoint share and
// wait for the rest — no day is ever computed twice or dropped.
//
// Cancelling ctx aborts the computation and releases this caller's
// day reservations, so a later Aggregate recomputes them instead of
// inheriting a cancelled result. In Degrade mode, days that fail after
// retries are reported via DayErrors and return as gaps (like
// outages); otherwise the first day error fails the call.
//
// Every aggregate is built at one width, analytics.AggregateColumns —
// the union of every accumulator's input columns — whether the records
// come from a store or the simulated world. So any mix of figures reads
// and folds each day once per pipeline: no request is ever too wide for
// a cached day.
//
// aggcache.mem_hits and mem_misses count each distinct requested day
// once per call that returns aggregates: a miss when this call computed
// the day, a hit when the cache (or another caller) supplied it.
func (p *Pipeline) Aggregate(ctx context.Context, days []time.Time) ([]*analytics.DayAgg, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	computed := make(map[time.Time]bool)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Claim days nobody holds; collect the entries of the rest. A
		// resolved entry whose day's stamp moved is evicted here and
		// recomputed. The stamps are read before the claim, so before
		// any load: a mutation that lands mid-load leaves the new entry
		// stale, and the next call reloads it.
		stamps := p.DayStamps(days)
		entryOf := make(map[time.Time]*aggEntry, len(days))
		var owned []time.Time
		p.mu.Lock()
		for i, d := range days {
			if _, ok := entryOf[d]; ok {
				continue // duplicate day in the request
			}
			e := p.cache[d]
			if e != nil && e.resolved() && e.stamp != stamps[i] {
				delete(p.cache, d)
				e = nil
			}
			if e == nil {
				e = &aggEntry{done: make(chan struct{}), stamp: stamps[i]}
				p.cache[d] = e
				owned = append(owned, d)
				computed[d] = true
			}
			entryOf[d] = e
		}
		p.mu.Unlock()

		if len(owned) > 0 {
			if err := p.computeDays(ctx, owned, entryOf); err != nil {
				return nil, err
			}
		}

		// Wait out days other callers are computing. An owner that
		// failed marked its entries broken and un-reserved the days, so
		// loop back and claim them ourselves.
		retryClaim := false
		for _, e := range entryOf {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err != nil {
				retryClaim = true
			}
		}
		if retryClaim {
			continue
		}
		mMemMisses.Add(uint64(len(computed)))
		mMemHits.Add(uint64(len(entryOf) - len(computed)))

		out := make([]*analytics.DayAgg, 0, len(days))
		for _, d := range days {
			if a := entryOf[d].agg; a != nil {
				out = append(out, a)
			}
			// nil aggregates are outages (store gaps) or degraded-away
			// failures: skipped, like the paper's plots skip
			// probe-down periods.
		}
		return out, nil
	}
}

// AggregateCols is Aggregate; cols is ignored. Every aggregate is built
// at analytics.AggregateColumns, so there is no narrower request to
// honour. It survives only for callers outside this package that still
// name it.
func (p *Pipeline) AggregateCols(ctx context.Context, days []time.Time, _ flowrec.ColumnSet) ([]*analytics.DayAgg, error) {
	return p.Aggregate(ctx, days)
}

// usable reports whether a persisted aggregate can answer for this
// pipeline: it was folded at full aggregation width — a narrower file
// from an older, column-pruning run reads as a miss — and, in sketch
// mode, it carries the sketches to merge.
func (p *Pipeline) usable(agg *analytics.DayAgg) bool {
	return agg != nil && agg.Cols.Covers(analytics.AggregateColumns) && (!p.cfg.Sketch || agg.Sketches != nil)
}

// computeDays produces the aggregates for the days this caller claimed
// and resolves their cache entries. On error (including cancellation)
// every owned entry is marked broken and un-reserved, so a retry
// recomputes the days rather than mistaking them for permanent
// outages. In Degrade mode per-day failures resolve to nil aggregates
// (gaps) and land in the DayErrors report instead of failing the call.
func (p *Pipeline) computeDays(ctx context.Context, owned []time.Time, entryOf map[time.Time]*aggEntry) (err error) {
	aggOf := make(map[time.Time]*analytics.DayAgg, len(owned))
	failed := make(map[time.Time]error)
	defer func() {
		p.mu.Lock()
		for _, d := range owned {
			e := entryOf[d]
			if err != nil {
				e.err = err
				delete(p.cache, d)
			} else {
				e.agg = aggOf[d]
			}
			close(e.done)
		}
		if err == nil {
			for d, derr := range failed {
				p.dayErrs[d] = derr
			}
		}
		p.mu.Unlock()
	}()

	// Disk cache: days reduced by an earlier run load in parallel —
	// each load is a gzip+gob decode, and serial loading is what used
	// to gate warm-cache startup on a ~2k-day span. Load errors (a
	// faulted or damaged cache) degrade to recomputation, never to
	// failure: the cache is an optimisation.
	missing := owned
	if p.cacheAggs() {
		loaded := make([]*analytics.DayAgg, len(owned))
		p.eachIndex(len(owned), func(i int) {
			if agg, lerr := p.storage.LoadAgg(owned[i]); lerr == nil && p.usable(agg) {
				loaded[i] = agg
				return
			}
			// Final-aggregate miss: the ingester checkpoints an open
			// day as partials (and older runs cached some days that
			// way) — merging them is the same reduce step spilling
			// runs, minus reading the records.
			if parts, lerr := p.storage.LoadPartials(owned[i]); lerr == nil && len(parts) > 0 {
				if agg, merr := analytics.MergePartials(owned[i], parts); merr == nil && p.usable(agg) {
					loaded[i] = agg
					mPartialHits.Inc()
					// A day served from partials that has no sealed log
					// yet is a live ("hot") day: the ingest daemon's
					// checkpoints are answering for records whose day
					// file does not exist.
					if !p.storage.HasDay(owned[i]) {
						mHotDayServes.Inc()
					}
				}
			}
		})
		missing = nil
		for i, d := range owned {
			if loaded[i] != nil {
				mDiskHits.Inc()
				aggOf[d] = loaded[i]
			} else {
				mDiskMisses.Inc()
				missing = append(missing, d)
			}
		}
	}

	if len(missing) > 0 {
		aggs, dayErrs, runErr := analytics.RunReport(ctx, p.Source(), missing, p.Cls, p.runConfig())
		if runErr != nil {
			return runErr
		}
		if len(dayErrs) > 0 {
			if !p.cfg.Degrade {
				return dayErrs[0].Err
			}
			for _, de := range dayErrs {
				failed[de.Day] = de.Err
				mDegradedDays.Inc()
				// Corrupt days — damage at the codec level or below it,
				// flowrec marks both — are quarantined so the next run reads
				// an outage instead of tripping over the same bytes; the
				// quarantine failing must not break the degrade path.
				// Rollups that folded the now-gone day are dropped too —
				// once the day is repaired and rewritten, the covering
				// windows must recompute rather than serve stale merges.
				if p.storage != nil && errors.Is(de.Err, flowrec.ErrCorrupt) {
					_ = p.storage.QuarantineDay(de.Day)
					_ = p.storage.InvalidateRollups(de.Day)
				}
			}
		}
		for _, a := range aggs {
			aggOf[a.Day] = a
		}
		if p.cacheAggs() {
			saveErrs := make([]error, len(aggs))
			p.eachIndex(len(aggs), func(i int) {
				saveErrs[i] = p.retry.Do(ctx, uint64(aggs[i].Day.Unix()), func() error {
					return p.storage.SaveAgg(aggs[i])
				})
			})
			for _, serr := range saveErrs {
				if serr != nil {
					if p.cfg.Degrade {
						// The aggregate exists in memory; a cache-save
						// failure only costs the next run a recompute.
						continue
					}
					return serr
				}
			}
		}
	}
	return nil
}

// cacheAggs reports whether per-day aggregates persist through storage.
func (p *Pipeline) cacheAggs() bool {
	return p.storage != nil && p.cfg.AggCacheDir != ""
}

// eachIndex runs fn(0..n-1) on the pipeline's bounded worker count.
func (p *Pipeline) eachIndex(n int, fn func(int)) {
	workers := p.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runConfig is the stage-one configuration every pipeline run uses:
// the pipeline's worker pool, decode width, retry, deadline, budget and
// sketch settings over AggregateColumns.
func (p *Pipeline) runConfig() analytics.RunConfig {
	return analytics.RunConfig{
		Workers:     p.cfg.Workers,
		DecodeWidth: p.cfg.ShardsPerDay,
		Retry:       p.retry,
		DayTimeout:  p.cfg.DayTimeout,
		Cols:        analytics.AggregateColumns,
		Sketch:      p.cfg.Sketch,
		MemBudget:   p.cfg.MemBudget,
		SpillDir:    p.cfg.SpillDir,
		SpillFanIn:  p.cfg.SpillFanIn,
	}
}

// runStage1 runs stage one outside the day cache (the counterfactual
// worlds of the what-if analysis build their own sources), honouring
// the pipeline's workers, retry, deadline and degrade configuration.
// Degraded day failures land in the DayErrors report.
func (p *Pipeline) runStage1(ctx context.Context, src analytics.Source, days []time.Time) ([]*analytics.DayAgg, error) {
	cfg := p.runConfig()
	cfg.Sketch = false // the counterfactual worlds read exact fields only
	aggs, dayErrs, err := analytics.RunReport(ctx, src, days, p.Cls, cfg)
	if err != nil {
		return nil, err
	}
	if len(dayErrs) > 0 {
		if !p.cfg.Degrade {
			return nil, dayErrs[0].Err
		}
		p.mu.Lock()
		for _, de := range dayErrs {
			p.dayErrs[de.Day] = de.Err
			mDegradedDays.Inc()
		}
		p.mu.Unlock()
	}
	return aggs, nil
}

// GenerateStore materialises the given days of the simulation into dst
// — the "copy logs to long-term storage" step. A bounded pool of
// Workers goroutines pulls days from a shared index (never one
// goroutine per day: a Stride:1 span is ~1975 days), transient write
// faults retry with backoff, and the total record count is reported.
// Fault-plan outage days are skipped entirely (they become store
// gaps); cancellation stops the pool between days.
func (p *Pipeline) GenerateStore(ctx context.Context, dst Storage, days []time.Time) (uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := p.cfg.Workers
	if workers > len(days) {
		workers = len(days)
	}
	if len(days) == 0 {
		return 0, nil
	}
	plan := p.faultPlan()
	var total atomic.Uint64
	errs := make([]error, len(days))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(days) {
					return
				}
				day := days[i]
				t0 := time.Now()
				var n uint64
				err := p.retry.Do(ctx, uint64(day.Unix()), func() error {
					var wn uint64
					wn, werr := dst.WriteDay(day, func(write func(*flowrec.Record) error) error {
						var emitErr error
						emitted := p.World.EmitDayFaults(day, plan, func(r *flowrec.Record) {
							if emitErr == nil {
								emitErr = write(r)
							}
						})
						if !emitted {
							return errSkipDay
						}
						return emitErr
					})
					n = wn
					return werr
				})
				mGenDayWall.ObserveSince(t0)
				if err != nil {
					if errors.Is(err, errSkipDay) {
						continue // injected outage: leave a store gap
					}
					errs[i] = fmt.Errorf("core: generating %s: %w", day.Format("2006-01-02"), err)
					continue
				}
				total.Add(n)
				mGenRecords.Add(n)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return total.Load(), err
	}
	for _, err := range errs {
		if err != nil {
			return total.Load(), err
		}
	}
	return total.Load(), nil
}

// errSkipDay aborts a WriteDay whose day an injected outage suppressed.
var errSkipDay = fmt.Errorf("core: day suppressed by fault plan")

// SpanDays returns the experiment's full-span sample under the
// configured stride.
func (p *Pipeline) SpanDays() []time.Time { return simnet.Days(p.cfg.Stride) }

// MonthDays lists every day of one month.
func MonthDays(year int, month time.Month) []time.Time {
	start := time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	var out []time.Time
	for d := start; d.Month() == month; d = d.AddDate(0, 0, 1) {
		out = append(out, d)
	}
	return out
}

// RangeDays lists days from start to end inclusive with a stride.
func RangeDays(start, end time.Time, stride int) []time.Time {
	if stride < 1 {
		stride = 1
	}
	var out []time.Time
	for d := start; !d.After(end); d = d.AddDate(0, 0, stride) {
		out = append(out, d)
	}
	return out
}
