package core

// The rollup tier. Every long-span experiment so far folds ~1,800
// per-day aggregates on every query; with a rollup directory configured
// (Config.RollupDir, -rollup on the binaries) the pipeline persists
// week/month/year windows pre-folded through the analytics merge
// monoid and answers from the coarsest tier that fits:
//
//   - planTiers assigns the requested days to the coarsest calendar
//     windows lying entirely inside the requested span (year first,
//     then month, then week); days at the range edges fall back to the
//     day tier.
//   - Each window is one rollups/<grain>-<start>-v2.frames file whose
//     manifest (Rollup.Requested) names the exact source-day grid; a
//     query with a different stride or span misses and rebuilds.
//   - A rewritten or quarantined day invalidates the rollups covering
//     it (DiskStorage.InvalidateRollups), so repaired days recompute
//     instead of serving stale merges.
//   - DayStats holds each window's rows in memory once read, valid while
//     the stamps of the window's requested days are unchanged, so a
//     long-lived pipeline re-reads a window's file only after one of
//     its days mutated.
//
// Exactness: the tier serves DayStat rows — per-source-day scalars —
// so figures that group by month or day (Figure 3, Figure 8, the
// active-share series) are byte-identical to the flat day fold; the
// rollup-equivalence test tier asserts it against the golden corpus.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/framefile"
	"repro/internal/metrics"
)

// Rollup-tier observability: hits serve a window without rebuilding it
// — mem_hits from the rows held in memory, the rest from its file —
// misses fall back to day aggregates and rebuild, invalidations are
// dropped files after a covered day changed.
var (
	mRollupHits    = metrics.GetCounter("rollup.hits")
	mRollupMemHits = metrics.GetCounter("rollup.mem_hits")
	mRollupMisses  = metrics.GetCounter("rollup.misses")
	mRollupBuilds  = metrics.GetCounter("rollup.builds")
	mRollupInvalid = metrics.GetCounter("rollup.invalidations")
)

// rollupCacheVersion invalidates persisted rollups when the Rollup
// schema or the file format changes.
const rollupCacheVersion = 2

// rollupCachePath names the file for one window, e.g.
// week-2016-05-09-v2.frames.
func rollupCachePath(dir string, g analytics.Grain, start time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-v%d.frames", g, start.Format("2006-01-02"), rollupCacheVersion))
}

// loadRollup reads one persisted window, nil when absent or unusable —
// the same never-trust-a-damaged-cache model as loadAgg.
func loadRollup(dir string, g analytics.Grain, start time.Time) *analytics.Rollup {
	var r analytics.Rollup
	if framefile.Load(rollupCachePath(dir, g, start), &r) != nil || r.Agg == nil ||
		r.Grain != g || !r.Start.Equal(start) {
		return nil
	}
	return &r
}

// saveRollup writes one window atomically.
func saveRollup(dir string, r *analytics.Rollup) error {
	if _, err := framefile.Save(rollupCachePath(dir, r.Grain, r.Start), r); err != nil {
		return fmt.Errorf("core: rollup cache: %w", err)
	}
	return nil
}

// tierWindow is one unit of a tier plan: a rollup window with the
// requested days inside it, or (Grain "") a run of day-tier leftovers.
type tierWindow struct {
	Grain analytics.Grain
	Start time.Time
	Days  []time.Time
}

// planTiers assigns the requested days (ascending, deduplicated by the
// caller's construction) to the coarsest windows that lie entirely
// inside the requested span. Selection is per grain coarsest-first:
// a window qualifies when its full calendar extent sits within
// [days[0], days[last]] — edge windows the request only grazes stay on
// finer tiers and ultimately the day tier, which is what keeps a
// rollup from folding days the query never asked about.
func planTiers(days []time.Time) []tierWindow {
	if len(days) == 0 {
		return nil
	}
	first, last := days[0], days[len(days)-1]
	remaining := days
	var wins []tierWindow
	for _, g := range analytics.Grains() {
		var keep []time.Time
		for i := 0; i < len(remaining); {
			ws := analytics.WindowStart(g, remaining[i])
			j := i
			for j < len(remaining) && analytics.WindowStart(g, remaining[j]).Equal(ws) {
				j++
			}
			end := analytics.NextWindow(g, ws).AddDate(0, 0, -1)
			if !ws.Before(first) && !end.After(last) {
				wins = append(wins, tierWindow{Grain: g, Start: ws, Days: remaining[i:j]})
			} else {
				keep = append(keep, remaining[i:j]...)
			}
			i = j
		}
		remaining = keep
	}
	if len(remaining) > 0 {
		wins = append(wins, tierWindow{Start: remaining[0], Days: remaining})
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Start.Before(wins[j].Start) })
	return wins
}

// RollupsEnabled reports whether the rollup tier is configured.
func (p *Pipeline) RollupsEnabled() bool {
	return p.storage != nil && p.cfg.RollupDir != ""
}

// rollupFor serves one planned window: a persisted rollup when its
// manifest matches the request exactly and its aggregate is usable
// (folded at AggregateColumns width, sketch-bearing in sketch mode), a
// rebuild from day aggregates otherwise. Save failures are fatal in
// strict mode and tolerated in Degrade (the rollup still answers from
// memory; the next run rebuilds).
func (p *Pipeline) rollupFor(ctx context.Context, win tierWindow) (*analytics.Rollup, error) {
	r, err := p.storage.LoadRollup(win.Grain, win.Start)
	if err == nil && r != nil && r.CoversExactly(win.Days) && p.usable(r.Agg) {
		mRollupHits.Inc()
		return r, nil
	}
	mRollupMisses.Inc()
	aggs, err := p.Aggregate(ctx, win.Days)
	if err != nil {
		return nil, err
	}
	r, err = analytics.BuildRollup(win.Grain, win.Start, win.Days, aggs)
	if err != nil {
		return nil, err
	}
	mRollupBuilds.Inc()
	if serr := p.retry.Do(ctx, uint64(win.Start.Unix()), func() error {
		return p.storage.SaveRollup(r)
	}); serr != nil && !p.cfg.Degrade {
		return nil, serr
	}
	return r, nil
}

// rollupKey names one rollup window in the memory tier.
type rollupKey struct {
	grain analytics.Grain
	start int64 // window start, Unix seconds
}

// rollupRows is one window in the memory tier: a rollup carrying only
// its manifest and per-source-day rows, and the stamps its requested
// days had when they were read. Agg stays on disk, so an entry is a few
// hundred bytes per source day, and with one entry per window the tier
// is bounded by the calendar, not by a budget.
type rollupRows struct {
	r      *analytics.Rollup
	stamps []uint64
}

// windowStats serves one planned window's rows: from memory when the
// held manifest covers the request exactly and none of its days'
// stamps moved, through rollupFor otherwise — which then refreshes the
// held rows. The stamps are read before rollupFor, so a day mutated
// while the window loads leaves the entry stale.
func (p *Pipeline) windowStats(ctx context.Context, win tierWindow) ([]analytics.DayStat, error) {
	key := rollupKey{win.Grain, win.Start.Unix()}
	stamps := p.DayStamps(win.Days)
	p.mu.Lock()
	e := p.rollRows[key]
	p.mu.Unlock()
	if e != nil && e.r.CoversExactly(win.Days) && slices.Equal(e.stamps, stamps) {
		mRollupHits.Inc()
		mRollupMemHits.Inc()
		return e.r.Stats, nil
	}
	r, err := p.rollupFor(ctx, win)
	if err != nil {
		return nil, err
	}
	rows := &analytics.Rollup{Grain: r.Grain, Start: r.Start, Requested: r.Requested, Stats: r.Stats}
	p.mu.Lock()
	p.rollRows[key] = &rollupRows{r: rows, stamps: stamps}
	p.mu.Unlock()
	return r.Stats, nil
}

// DayStats returns one scalar row per requested day that has data,
// ascending. With the rollup tier enabled, rows come from the coarsest
// covering rollups (held in memory once read, see windowStats) and
// only edge days touch per-day aggregates; without it, the rows
// project straight off the day aggregates.
func (p *Pipeline) DayStats(ctx context.Context, days []time.Time) ([]analytics.DayStat, error) {
	if !p.RollupsEnabled() {
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return nil, err
		}
		rows := make([]analytics.DayStat, 0, len(aggs))
		for _, a := range aggs {
			rows = append(rows, analytics.NewDayStat(a))
		}
		return rows, nil
	}
	var rows []analytics.DayStat
	for _, win := range planTiers(days) {
		if win.Grain == "" {
			aggs, err := p.Aggregate(ctx, win.Days)
			if err != nil {
				return nil, err
			}
			for _, a := range aggs {
				rows = append(rows, analytics.NewDayStat(a))
			}
			continue
		}
		stats, err := p.windowStats(ctx, win)
		if err != nil {
			return nil, err
		}
		rows = append(rows, stats...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Day.Before(rows[j].Day) })
	return rows, nil
}

// BuildRollups pre-builds (or refreshes) every rollup window the given
// day list plans to, returning how many windows were built or already
// current — the warm-the-tier entry point behind edgequery/edgereport
// -rollup runs and the benchmarks.
func (p *Pipeline) BuildRollups(ctx context.Context, days []time.Time) (int, error) {
	if !p.RollupsEnabled() {
		return 0, fmt.Errorf("core: no rollup directory configured")
	}
	n := 0
	for _, win := range planTiers(days) {
		if win.Grain == "" {
			continue
		}
		if _, err := p.rollupFor(ctx, win); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Rollups returns the planned rollups for days, loading or building
// each — the query-path variant of BuildRollups for callers that want
// the coarse aggregates themselves (window totals, sketches).
func (p *Pipeline) Rollups(ctx context.Context, days []time.Time) ([]*analytics.Rollup, error) {
	if !p.RollupsEnabled() {
		return nil, fmt.Errorf("core: no rollup directory configured")
	}
	var out []*analytics.Rollup
	for _, win := range planTiers(days) {
		if win.Grain == "" {
			continue
		}
		r, err := p.rollupFor(ctx, win)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MonthlySeriesTier is Figure 3's fold served from the rollup tier
// when enabled — byte-identical to MonthlySeries over the flat day
// fold — and the plain exact path otherwise.
func (p *Pipeline) MonthlySeriesTier(ctx context.Context, days []time.Time) ([]analytics.MonthlyMean, error) {
	if !p.RollupsEnabled() {
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return nil, err
		}
		return analytics.MonthlySeries(aggs), nil
	}
	rows, err := p.DayStats(ctx, days)
	if err != nil {
		return nil, err
	}
	return analytics.MonthlyFromStats(rows), nil
}

// ActiveSeriesTier is the section-3 active-share series through the
// rollup tier.
func (p *Pipeline) ActiveSeriesTier(ctx context.Context, days []time.Time) ([]analytics.ActivePoint, error) {
	if !p.RollupsEnabled() {
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return nil, err
		}
		return analytics.ActiveSeries(aggs), nil
	}
	rows, err := p.DayStats(ctx, days)
	if err != nil {
		return nil, err
	}
	return analytics.ActiveFromStats(rows), nil
}

// ProtoSharesTier is Figure 8's monthly protocol mix through the
// rollup tier.
func (p *Pipeline) ProtoSharesTier(ctx context.Context, days []time.Time) ([]analytics.ProtoSharePoint, error) {
	if !p.RollupsEnabled() {
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return nil, err
		}
		return analytics.ProtocolShares(aggs), nil
	}
	rows, err := p.DayStats(ctx, days)
	if err != nil {
		return nil, err
	}
	return analytics.ProtoSharesFromStats(rows), nil
}
