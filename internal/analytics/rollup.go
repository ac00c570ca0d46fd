package analytics

// Multi-resolution rollups. Every figure so far is a fold over ~1,800
// per-day aggregates; the paper's headline results are 5-year trends,
// so the same days are re-folded by every query. A rollup is the part
// of that fold the trend figures read, done once per calendar window
// and persisted: a week, month or year of days projected onto one
// small DayStat row per source day, under a manifest naming the exact
// day grid it covers. Rows stay at day resolution because Figure 3 and
// Figure 8 group by *month* and ActiveSeries by day — a cross-day merge
// would collapse exactly the axis those figures plot. DayStats are
// ~200 bytes/day, so a year rollup reads in one file instead of ~365
// day aggregates.
//
// The *FromStats folds reproduce the corresponding figures.go
// arithmetic exactly — same grouping, same accumulation order per day,
// same divisions — so in exact mode a figure computed from rollups is
// byte-identical to the flat day fold (asserted by the
// rollup-equivalence test tier). The one caveat: equality of the
// float64 means relies on byte sums staying below 2^53, where float64
// addition of integers is exact and order-free; at 2^53 bytes per month
// (~9 PB) both paths would drift together anyway.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/asn"
	"repro/internal/flowrec"
)

// Grain is a rollup resolution.
type Grain string

// Grains, coarsest last.
const (
	GrainWeek  Grain = "week"
	GrainMonth Grain = "month"
	GrainYear  Grain = "year"
)

// Grains lists the rollup grains coarsest-first — the order tier
// selection tries them in.
func Grains() []Grain { return []Grain{GrainYear, GrainMonth, GrainWeek} }

// WindowStart returns the start of the g-window containing day: the
// Monday of its ISO week, the first of its month, or January 1st.
func WindowStart(g Grain, day time.Time) time.Time {
	y, m, d := day.UTC().Date()
	day = time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	switch g {
	case GrainWeek:
		wd := (int(day.Weekday()) + 6) % 7 // Monday=0 … Sunday=6
		return day.AddDate(0, 0, -wd)
	case GrainMonth:
		return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
	case GrainYear:
		return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return day
}

// NextWindow returns the start of the window after start.
func NextWindow(g Grain, start time.Time) time.Time {
	switch g {
	case GrainWeek:
		return start.AddDate(0, 0, 7)
	case GrainMonth:
		return start.AddDate(0, 1, 0)
	case GrainYear:
		return start.AddDate(1, 0, 0)
	}
	return start.AddDate(0, 0, 1)
}

// DayStat is one source day's scalar row inside a rollup: exactly the
// counters the monthly and per-day series figures consume, kept at day
// resolution so a coarse rollup can still group by month or day.
type DayStat struct {
	Day time.Time
	// Observed / Active subscription counts per tech (0 ADSL, 1 FTTH).
	Observed [2]int
	Active   [2]int
	// SubDown/SubUp sum per-subscription daily bytes per tech — the
	// numerators of Figure 3's monthly means.
	SubDown [2]uint64
	SubUp   [2]uint64
	// ProtoBytes mirrors DayAgg.ProtoBytes (Figure 8's input).
	ProtoBytes [flowrec.WebProtoCount]uint64
	// Whole-day totals.
	TotalDown, TotalUp, Flows uint64
}

// NewDayStat projects one day aggregate onto its rollup row.
func NewDayStat(agg *DayAgg) DayStat {
	s := DayStat{
		Day:        agg.Day,
		ProtoBytes: agg.ProtoBytes,
		TotalDown:  agg.TotalDown,
		TotalUp:    agg.TotalUp,
		Flows:      agg.Flows,
	}
	for _, sd := range agg.Subs {
		ti := techIndex(sd.Tech)
		s.Observed[ti]++
		if sd.Active() {
			s.Active[ti]++
		}
		s.SubDown[ti] += sd.Down
		s.SubUp[ti] += sd.Up
	}
	return s
}

// Rollup is one persisted window: the manifest (Requested/SourceDays)
// and the per-day stat rows.
type Rollup struct {
	Grain Grain
	// Start is the window's first calendar day.
	Start time.Time
	// Requested is the manifest: the exact day list this rollup folded,
	// gaps excluded at build time but grid preserved — a query with a
	// different stride or span must not reuse it (CoversExactly).
	Requested []time.Time
	// SourceDays are the requested days that actually had data.
	SourceDays []time.Time
	// Stats holds one row per source day, ascending.
	Stats []DayStat
}

// BuildRollup projects the day aggregates of one window onto its rows.
// aggs must be ascending by day, each inside [start, NextWindow(g,
// start)), and be the aggregates of exactly the requested days that had
// data.
func BuildRollup(g Grain, start time.Time, requested []time.Time, aggs []*DayAgg) (*Rollup, error) {
	end := NextWindow(g, start)
	r := &Rollup{Grain: g, Start: start}
	for _, d := range requested {
		r.Requested = append(r.Requested, d.UTC().Truncate(24*time.Hour))
	}
	for i, agg := range aggs {
		if agg.Day.Before(start) || !agg.Day.Before(end) {
			return nil, fmt.Errorf("analytics: day %s outside %s window %s",
				agg.Day.Format("2006-01-02"), g, start.Format("2006-01-02"))
		}
		if i > 0 && !aggs[i-1].Day.Before(agg.Day) {
			return nil, fmt.Errorf("analytics: rollup days not ascending at %s",
				agg.Day.Format("2006-01-02"))
		}
		r.SourceDays = append(r.SourceDays, agg.Day)
		r.Stats = append(r.Stats, NewDayStat(agg))
	}
	return r, nil
}

// CoversExactly reports whether this rollup was built from exactly the
// given requested-day list — the manifest check that keeps a rollup
// from answering a query with a different stride or span.
func (r *Rollup) CoversExactly(days []time.Time) bool {
	if len(days) != len(r.Requested) {
		return false
	}
	for i, d := range days {
		y, m, dd := d.UTC().Date()
		if !time.Date(y, m, dd, 0, 0, 0, 0, time.UTC).Equal(r.Requested[i]) {
			return false
		}
	}
	return true
}

// MonthlyFromStats is MonthlySeries over rollup rows: identical
// grouping and divisions, with the per-subscription float64 sums
// replaced by the rows' exact uint64 day sums (equal below 2^53).
func MonthlyFromStats(rows []DayStat) []MonthlyMean {
	type acc struct {
		sum  [2][2]uint64
		subs [2]int
		days int
	}
	byMonth := make(map[time.Time]*acc)
	var order []time.Time
	for _, s := range rows {
		m := asn.MonthStart(s.Day)
		a := byMonth[m]
		if a == nil {
			a = &acc{}
			byMonth[m] = a
			order = append(order, m)
		}
		a.days++
		for ti := 0; ti < 2; ti++ {
			a.sum[ti][Down] += s.SubDown[ti]
			a.sum[ti][Up] += s.SubUp[ti]
			a.subs[ti] += s.Observed[ti]
		}
	}
	sortTimes(order)
	out := make([]MonthlyMean, 0, len(order))
	for _, m := range order {
		a := byMonth[m]
		mm := MonthlyMean{Month: m, Days: a.days}
		for ti := 0; ti < 2; ti++ {
			if a.subs[ti] > 0 {
				mm.Mean[ti][Down] = float64(a.sum[ti][Down]) / float64(a.subs[ti])
				mm.Mean[ti][Up] = float64(a.sum[ti][Up]) / float64(a.subs[ti])
			}
		}
		out = append(out, mm)
	}
	return out
}

// ActiveFromStats is ActiveSeries over rollup rows.
func ActiveFromStats(rows []DayStat) []ActivePoint {
	out := make([]ActivePoint, 0, len(rows))
	for _, s := range rows {
		p := ActivePoint{
			Day:      s.Day,
			Active:   s.Active[0] + s.Active[1],
			Observed: s.Observed[0] + s.Observed[1],
		}
		if p.Observed > 0 {
			p.ActivePct = 100 * float64(p.Active) / float64(p.Observed)
		}
		out = append(out, p)
	}
	return out
}

// ProtoSharesFromStats is ProtocolShares over rollup rows.
func ProtoSharesFromStats(rows []DayStat) []ProtoSharePoint {
	byMonth := make(map[time.Time]map[flowrec.WebProto]uint64)
	var order []time.Time
	for _, s := range rows {
		m := asn.MonthStart(s.Day)
		a := byMonth[m]
		if a == nil {
			a = make(map[flowrec.WebProto]uint64)
			byMonth[m] = a
			order = append(order, m)
		}
		for _, p := range webProtos {
			a[p] += s.ProtoBytes[p]
		}
	}
	sortTimes(order)
	out := make([]ProtoSharePoint, 0, len(order))
	for _, m := range order {
		a := byMonth[m]
		var total uint64
		for _, v := range a {
			total += v
		}
		p := ProtoSharePoint{Month: m, SharePct: make(map[flowrec.WebProto]float64, len(webProtos))}
		for _, proto := range webProtos {
			if total > 0 {
				p.SharePct[proto] = 100 * float64(a[proto]) / float64(total)
			}
		}
		out = append(out, p)
	}
	return out
}

func sortTimes(ts []time.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
}
