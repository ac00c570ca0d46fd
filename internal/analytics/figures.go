package analytics

import (
	"sort"
	"time"

	"repro/internal/asn"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/stats"
)

// Stage two: figure-level computations over slices of per-day
// aggregates. Each function names the paper figure it regenerates.

// Dir selects a traffic direction.
type Dir uint8

// Directions.
const (
	Down Dir = iota
	Up
)

// String names the direction.
func (d Dir) String() string {
	if d == Up {
		return "upload"
	}
	return "download"
}

// techIndex maps a technology to 0 (ADSL) / 1 (FTTH).
func techIndex(t flowrec.AccessTech) int {
	if t == flowrec.TechFTTH {
		return 1
	}
	return 0
}

// --- Figure 2: CCDF of per-active-subscriber daily traffic ---------------

// DailyVolumeDist builds the distribution of daily traffic per active
// subscriber over the given days, for one technology and direction —
// the ingredient of Figure 2's CCDFs.
func DailyVolumeDist(aggs []*DayAgg, tech flowrec.AccessTech, dir Dir) *stats.ECDF {
	var e stats.ECDF
	for _, agg := range aggs {
		for _, sd := range agg.Subs {
			if sd.Tech != tech || !sd.Active() {
				continue
			}
			v := sd.Down
			if dir == Up {
				v = sd.Up
			}
			e.Add(float64(v))
		}
	}
	return &e
}

// --- Figure 3: average per-subscription daily traffic ---------------------

// MonthlyMean is one month of Figure 3: the mean daily bytes per
// monitored subscription, split by technology and direction.
type MonthlyMean struct {
	Month time.Time
	// [tech][dir] mean bytes; NaN-free: months with no subscribers of
	// a tech report 0.
	Mean [2][2]float64
	Days int
}

// MonthlySeries reduces day aggregates to Figure 3's monthly series.
func MonthlySeries(aggs []*DayAgg) []MonthlyMean {
	type acc struct {
		sum  [2][2]float64
		subs [2]int
		days int
	}
	byMonth := make(map[time.Time]*acc)
	for _, agg := range aggs {
		m := asn.MonthStart(agg.Day)
		a := byMonth[m]
		if a == nil {
			a = &acc{}
			byMonth[m] = a
		}
		a.days++
		for _, sd := range agg.Subs {
			ti := techIndex(sd.Tech)
			a.sum[ti][Down] += float64(sd.Down)
			a.sum[ti][Up] += float64(sd.Up)
			a.subs[ti]++
		}
	}
	out := make([]MonthlyMean, 0, len(byMonth))
	for m, a := range byMonth {
		mm := MonthlyMean{Month: m, Days: a.days}
		for ti := 0; ti < 2; ti++ {
			if a.subs[ti] > 0 {
				mm.Mean[ti][Down] = a.sum[ti][Down] / float64(a.subs[ti])
				mm.Mean[ti][Up] = a.sum[ti][Up] / float64(a.subs[ti])
			}
		}
		out = append(out, mm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Month.Before(out[j].Month) })
	return out
}

// --- Figure 4: hour-of-day growth ratio -----------------------------------

// HourlyRatio computes, per 10-minute bin, the ratio of mean
// per-subscriber downloaded bytes between two periods (numerator over
// denominator), Bézier-smoothed like the paper's plot. Bins where the
// denominator is empty carry a ratio of 0. With no aggregates in
// either period there is no curve at all: the result is empty, never
// a smoothed row of NaN or zero points masquerading as data.
func HourlyRatio(num, den []*DayAgg, tech flowrec.AccessTech, smooth int) []stats.Point {
	if len(num) == 0 && len(den) == 0 {
		return nil
	}
	perBin := func(aggs []*DayAgg) [TimeBinCount]float64 {
		var bins [TimeBinCount]float64
		var subDays float64
		ti := techIndex(tech)
		for _, agg := range aggs {
			for b := 0; b < TimeBinCount; b++ {
				bins[b] += float64(agg.DownBins[ti][b])
			}
			a, f := agg.ObservedSubs()
			if ti == 0 {
				subDays += float64(a)
			} else {
				subDays += float64(f)
			}
		}
		if subDays > 0 {
			for b := range bins {
				bins[b] /= subDays
			}
		}
		return bins
	}
	nb, db := perBin(num), perBin(den)
	curve := make([]stats.Point, TimeBinCount)
	for b := 0; b < TimeBinCount; b++ {
		hour := float64(b) / 6
		r := 0.0
		if db[b] > 0 {
			r = nb[b] / db[b]
		}
		curve[b] = stats.Point{X: hour, Y: r}
	}
	if smooth > 1 {
		return stats.Bezier(curve, smooth)
	}
	return curve
}

// --- Figures 5, 6, 7, 9: service popularity and volumes -------------------

// SvcDayPoint is one day of a service's story: the share of active
// subscribers using it and the mean daily volume per using subscriber,
// split by technology.
type SvcDayPoint struct {
	Day time.Time
	// PopPct[tech] is the percentage of that technology's active
	// subscribers that visited the service (per the section 4.1
	// byte threshold).
	PopPct [2]float64
	// VolPerUser[tech] is mean exchanged bytes (down+up) per visiting
	// subscriber.
	VolPerUser [2]float64
}

// ServiceSeries extracts one service's daily series (Figures 6, 7 and,
// restricted to 2014, Figure 9).
func ServiceSeries(aggs []*DayAgg, svc classify.Service) []SvcDayPoint {
	thr := classify.VisitThreshold(svc)
	out := make([]SvcDayPoint, 0, len(aggs))
	for _, agg := range aggs {
		p := SvcDayPoint{Day: agg.Day}
		var active [2]float64
		var users [2]float64
		var vol [2]float64
		for _, sd := range agg.Subs {
			if !sd.Active() {
				continue
			}
			ti := techIndex(sd.Tech)
			active[ti]++
			use := sd.PerSvc[svc]
			if use == nil || use.Down+use.Up < thr {
				continue
			}
			users[ti]++
			vol[ti] += float64(use.Down + use.Up)
		}
		for ti := 0; ti < 2; ti++ {
			if active[ti] > 0 {
				p.PopPct[ti] = 100 * users[ti] / active[ti]
			}
			if users[ti] > 0 {
				p.VolPerUser[ti] = vol[ti] / users[ti]
			}
		}
		out = append(out, p)
	}
	return out
}

// ShareDayPoint is one day of Figure 5b: a service's share of all
// downloaded bytes.
type ShareDayPoint struct {
	Day      time.Time
	SharePct float64
}

// ServiceByteShare extracts a service's share of downloaded bytes per
// day (Figure 5b).
func ServiceByteShare(aggs []*DayAgg, svc classify.Service) []ShareDayPoint {
	out := make([]ShareDayPoint, 0, len(aggs))
	for _, agg := range aggs {
		p := ShareDayPoint{Day: agg.Day}
		if agg.TotalDown > 0 {
			p.SharePct = 100 * float64(agg.ServiceBytes[svc]) / float64(agg.TotalDown)
		}
		out = append(out, p)
	}
	return out
}

// --- Figure 8: web protocol breakdown --------------------------------------

// webProtos are the protocols of Figure 8, in stacking order.
var webProtos = []flowrec.WebProto{
	flowrec.WebHTTP, flowrec.WebQUIC, flowrec.WebTLS,
	flowrec.WebHTTP2, flowrec.WebSPDY, flowrec.WebFBZero,
}

// WebProtos exposes Figure 8's protocol list for reports.
func WebProtos() []flowrec.WebProto { return append([]flowrec.WebProto(nil), webProtos...) }

// ProtoSharePoint is one month of Figure 8.
type ProtoSharePoint struct {
	Month time.Time
	// SharePct maps each web protocol to its percentage of web bytes.
	SharePct map[flowrec.WebProto]float64
}

// ProtocolShares reduces aggregates to monthly web-protocol shares
// (Figure 8). Only web protocols participate; P2P/DNS/other are not
// part of the web mix.
func ProtocolShares(aggs []*DayAgg) []ProtoSharePoint {
	type acc struct {
		bytes map[flowrec.WebProto]uint64
	}
	byMonth := make(map[time.Time]*acc)
	for _, agg := range aggs {
		m := asn.MonthStart(agg.Day)
		a := byMonth[m]
		if a == nil {
			a = &acc{bytes: make(map[flowrec.WebProto]uint64)}
			byMonth[m] = a
		}
		for _, p := range webProtos {
			a.bytes[p] += agg.ProtoBytes[p]
		}
	}
	out := make([]ProtoSharePoint, 0, len(byMonth))
	for m, a := range byMonth {
		var total uint64
		for _, v := range a.bytes {
			total += v
		}
		p := ProtoSharePoint{Month: m, SharePct: make(map[flowrec.WebProto]float64, len(webProtos))}
		for _, proto := range webProtos {
			if total > 0 {
				p.SharePct[proto] = 100 * float64(a.bytes[proto]) / float64(total)
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Month.Before(out[j].Month) })
	return out
}

// --- Figure 10: RTT CDFs ----------------------------------------------------

// RTTDist pools the per-flow minimum RTT samples (milliseconds) of a
// service over the given days (Figure 10 uses one month per curve).
func RTTDist(aggs []*DayAgg, svc classify.Service) *stats.ECDF {
	var e stats.ECDF
	for _, agg := range aggs {
		e.AddAll(agg.RTTMinMs[svc])
	}
	return &e
}

// --- Figure 11: infrastructure evolution ------------------------------------

// FootprintPoint is one day of Figure 11a-c: how many distinct server
// addresses a service used, split into dedicated (only that service)
// and shared (seen with other services too).
type FootprintPoint struct {
	Day       time.Time
	Dedicated int
	Shared    int
}

// ServerFootprint computes the per-day address inventory of a service.
func ServerFootprint(aggs []*DayAgg, svc classify.Service) []FootprintPoint {
	out := make([]FootprintPoint, 0, len(aggs))
	for _, agg := range aggs {
		p := FootprintPoint{Day: agg.Day}
		for _, info := range agg.ServerIPs {
			if !info.Services[svc] {
				continue
			}
			if len(info.Services) > 1 {
				p.Shared++
			} else {
				p.Dedicated++
			}
		}
		out = append(out, p)
	}
	return out
}

// ASNPoint is one day of Figure 11d-f: the service's address count per
// organisation.
type ASNPoint struct {
	Day   time.Time
	ByOrg map[asn.Org]int
}

// ASNBreakdown resolves a service's daily addresses against the RIB of
// their epoch.
func ASNBreakdown(aggs []*DayAgg, svc classify.Service, ribs *asn.RIBSet) []ASNPoint {
	out := make([]ASNPoint, 0, len(aggs))
	for _, agg := range aggs {
		p := ASNPoint{Day: agg.Day, ByOrg: make(map[asn.Org]int)}
		for addr, info := range agg.ServerIPs {
			if !info.Services[svc] {
				continue
			}
			p.ByOrg[ribs.OrgLookup(agg.Day, addr)]++
		}
		out = append(out, p)
	}
	return out
}

// DomainPoint is one month of Figure 11g-i: byte share per
// second-level domain.
type DomainPoint struct {
	Month    time.Time
	SharePct map[string]float64
}

// DomainShares computes a service's monthly traffic share per
// second-level domain.
func DomainShares(aggs []*DayAgg, svc classify.Service) []DomainPoint {
	byMonth := make(map[time.Time]map[string]uint64)
	for _, agg := range aggs {
		m := asn.MonthStart(agg.Day)
		acc := byMonth[m]
		if acc == nil {
			acc = make(map[string]uint64)
			byMonth[m] = acc
		}
		for dom, bytes := range agg.DomainBytes[svc] {
			acc[dom] += bytes
		}
	}
	out := make([]DomainPoint, 0, len(byMonth))
	for m, acc := range byMonth {
		var total uint64
		for _, v := range acc {
			total += v
		}
		p := DomainPoint{Month: m, SharePct: make(map[string]float64, len(acc))}
		for dom, v := range acc {
			if total > 0 {
				p.SharePct[dom] = 100 * float64(v) / float64(total)
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Month.Before(out[j].Month) })
	return out
}

// --- Section 3 headline: active subscriber share ----------------------------

// ActivePoint is one day's activity summary.
type ActivePoint struct {
	Day       time.Time
	ActivePct float64
	Active    int
	Observed  int
}

// ActiveSeries computes the share of observed subscriptions passing
// the section 3 activity filter, per day.
func ActiveSeries(aggs []*DayAgg) []ActivePoint {
	out := make([]ActivePoint, 0, len(aggs))
	for _, agg := range aggs {
		aA, aF := agg.ActiveSubs()
		oA, oF := agg.ObservedSubs()
		p := ActivePoint{Day: agg.Day, Active: aA + aF, Observed: oA + oF}
		if p.Observed > 0 {
			p.ActivePct = 100 * float64(p.Active) / float64(p.Observed)
		}
		out = append(out, p)
	}
	return out
}
