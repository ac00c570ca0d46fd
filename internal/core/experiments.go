package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/asn"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/report"
)

// Experiment is one reproducible table or figure of the paper.
type Experiment struct {
	// ID is the handle used on the command line and in bench names
	// ("table1", "fig2", ... "fig11", "active").
	ID string
	// Title cites what the paper shows.
	Title string
	// Days lists the days of data the experiment consumes under a
	// given stride.
	Days func(stride int) []time.Time
	// Run aggregates (through the pipeline cache) and writes the
	// rendered result. Cancelling ctx aborts mid-aggregation.
	Run func(ctx context.Context, p *Pipeline, w io.Writer) error
	// Figure, when set, is the experiment's data table: served on
	// /v1/figures/{id}, exported by edgereport -export, and for most
	// figures also what Run renders.
	Figure *Figure
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "table1",
			Title: "Table 1: domain-to-service associations",
			Days:  func(int) []time.Time { return nil },
			Run:   runTable1,
		},
		{
			ID:    "active",
			Title: "Section 3: share of active subscribers per day (~80%)",
			Days:  func(stride int) []time.Time { return RangeDays(date(2016, 4, 1), date(2016, 4, 30), 1) },
			Run:   runActive,
			Figure: &Figure{
				Title: "share of active subscribers per day", Tiered: true, Rows: rowsOf(activeRows),
			},
		},
		{
			ID:    "fig2",
			Title: "Figure 2: CCDF of per-active-subscriber daily traffic, Apr 2014 vs Apr 2017",
			Days:  aprilDays,
			Run:   runFig2,
			Figure: &Figure{
				Title:     "per-active-subscriber daily traffic distribution",
				Quantiles: true, Tech: true, Rows: rowsOf(fig2Rows),
			},
		},
		{
			ID:    "fig3",
			Title: "Figure 3: average per-subscription daily traffic over 54 months",
			Days:  spanDays,
			Run:   runFig3,
			Figure: &Figure{
				Title: "average per-subscription daily traffic by month", Tiered: true, Rows: rowsOf(fig3Rows),
			},
		},
		{
			ID:    "fig4",
			Title: "Figure 4: download growth ratio Apr 2017 / Apr 2014 by time of day",
			Days:  aprilDays,
			Run:   runFig4,
			Figure: &Figure{
				Title:      "download growth ratio Apr 2017 / Apr 2014 by time of day",
				FixedRange: true, Points: true, Rows: rowsOf(fig4Rows),
			},
		},
		{
			ID:    "fig5",
			Title: "Figure 5: service popularity and byte share over time",
			Days:  spanDays,
			Run:   runFig5,
			Figure: &Figure{
				Title: "service popularity and byte share per day", Services: true, Rows: rowsOf(fig5Rows),
			},
		},
		{
			ID:    "fig6",
			Title: "Figure 6: P2P, Netflix, YouTube popularity and volumes",
			Days:  spanDays,
			Run:   runFig6,
		},
		{
			ID:    "fig7",
			Title: "Figure 7: SnapChat, WhatsApp, Instagram popularity and volumes",
			Days:  spanDays,
			Run:   runFig7,
		},
		{
			ID:    "fig8",
			Title: "Figure 8: web protocol breakdown over 5 years (events A-F)",
			Days:  spanDays,
			Run:   runFig8,
			Figure: &Figure{
				Title: "web protocol share of web bytes, monthly", Tiered: true, Rows: rowsOf(fig8Rows),
			},
		},
		{
			ID:    "fig9",
			Title: "Figure 9: Facebook per-user daily traffic through 2014 (video auto-play)",
			Days: func(stride int) []time.Time {
				s := stride / 2
				if s < 1 {
					s = 1
				}
				return RangeDays(date(2014, 1, 1), date(2014, 11, 30), s)
			},
			Run: runFig9,
		},
		{
			ID:    "fig10",
			Title: "Figure 10: RTT CDFs 2014 vs 2017 (Facebook, Instagram, YouTube, Google)",
			Days:  aprilDays,
			Run:   runFig10,
			Figure: &Figure{
				Title:     "per-flow minimum RTT quantiles by service",
				Quantiles: true, Services: true, Rows: rowsOf(fig10Rows),
			},
		},
		{
			ID:    "fig11",
			Title: "Figure 11: Facebook, Instagram, YouTube infrastructure evolution",
			Days:  spanDays,
			Run:   runFig11,
		},
	}
}

// AllExperiments returns the paper registry plus the extension
// analyses (weekly reach, QUIC version mix).
func AllExperiments() []Experiment {
	return append(Experiments(), extensionExperiments()...)
}

// Lookup finds an experiment (including extensions) by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func spanDays(stride int) []time.Time {
	return RangeDays(date(2013, 7, 1), date(2017, 12, 31), stride)
}

// aprilDays: the two comparison months of Figures 2, 4 and 10, at
// stride 1 for distributional accuracy (they are only 60 days).
func aprilDays(int) []time.Time {
	return append(MonthDays(2014, time.April), MonthDays(2017, time.April)...)
}

// splitAprils separates the fig2/4/10 window into its two months.
func splitAprils(aggs []*analytics.DayAgg) (a14, a17 []*analytics.DayAgg) {
	for _, a := range aggs {
		if a.Day.Year() == 2014 {
			a14 = append(a14, a)
		} else {
			a17 = append(a17, a)
		}
	}
	return
}

// --- Table 1 ---------------------------------------------------------------

func runTable1(ctx context.Context, p *Pipeline, w io.Writer) error {
	if err := report.Section(w, "Table 1: examples of domain-to-service associations"); err != nil {
		return err
	}
	rows := [][]string{
		{"facebook.com", string(p.Cls.Lookup("facebook.com"))},
		{"fbcdn.com", string(p.Cls.Lookup("fbcdn.com"))},
		{"fbstatic-a.akamaihd.net (regexp)", string(p.Cls.Lookup("fbstatic-a.akamaihd.net"))},
		{"netflix.com", string(p.Cls.Lookup("netflix.com"))},
		{"nflxvideo.net", string(p.Cls.Lookup("nflxvideo.net"))},
		{"r3---sn-hpa7kn7s.googlevideo.com", string(p.Cls.Lookup("r3---sn-hpa7kn7s.googlevideo.com"))},
		{"scontent.cdninstagram.com", string(p.Cls.Lookup("scontent.cdninstagram.com"))},
		{"mmx-ds.cdn.whatsapp.net", string(p.Cls.Lookup("mmx-ds.cdn.whatsapp.net"))},
		{"unclassified.example.org", orDash(string(p.Cls.Lookup("unclassified.example.org")))},
	}
	return report.Table(w, []string{"Domain", "Service"}, rows)
}

func orDash(s string) string {
	if s == "" {
		return "(unknown)"
	}
	return s
}

// --- Section 3: active share ------------------------------------------------

func runActive(ctx context.Context, p *Pipeline, w io.Writer) error {
	rs, err := activeRows(ctx, p, FigureParams{}, Lookup0("active").Days(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Active subscribers (section 3 filter: ≥10 flows, >15 kB down, >5 kB up)"); err != nil {
		return err
	}
	if len(rs) == 0 {
		_, err := fmt.Fprintln(w, "(no data: the lake holds no day of April 2016)")
		return err
	}
	var sum float64
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		sum += r.ActivePct
		rows = append(rows, []string{r.Day, fmt.Sprint(r.Active), fmt.Sprint(r.Observed), report.Pct(r.ActivePct)})
	}
	if err := report.Table(w, []string{"day", "active", "observed", "active%"}, rows); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nmean active share: %s (paper: ~80%%)\n", report.Pct(sum/float64(len(rs))))
	return err
}

// Lookup0 is Lookup for known-good IDs (panics otherwise, programming
// error only).
func Lookup0(id string) Experiment {
	e, ok := Lookup(id)
	if !ok {
		panic("core: unknown experiment " + id)
	}
	return e
}

// --- Figure 2 ----------------------------------------------------------------

func runFig2(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, aprilDays(0))
	if err != nil {
		return err
	}
	a14, a17 := splitAprils(aggs)
	if err := report.Section(w, "Figure 2: CCDF of daily traffic per active subscriber"); err != nil {
		return err
	}
	xsDown := []float64{10 << 20, 100 << 20, 500 << 20, 1 << 30, 3 << 30}
	xsUp := []float64{1 << 20, 10 << 20, 100 << 20, 500 << 20, 1 << 30}
	for _, dir := range []analytics.Dir{analytics.Down, analytics.Up} {
		xs := xsDown
		if dir == analytics.Up {
			xs = xsUp
		}
		headers := []string{"curve", "median(MB)"}
		for _, x := range xs {
			headers = append(headers, fmt.Sprintf("P(>%sMB)", report.F(x/(1<<20))))
		}
		var rows [][]string
		for _, c := range []struct {
			label string
			aggs  []*analytics.DayAgg
			tech  flowrec.AccessTech
		}{
			{"ADSL 2014", a14, flowrec.TechADSL},
			{"ADSL 2017", a17, flowrec.TechADSL},
			{"FTTH 2014", a14, flowrec.TechFTTH},
			{"FTTH 2017", a17, flowrec.TechFTTH},
		} {
			dist := analytics.DailyVolumeDist(c.aggs, c.tech, dir)
			row := []string{c.label, report.MB(dist.Median())}
			for _, x := range xs {
				row = append(row, report.F(dist.CCDF(x)))
			}
			rows = append(rows, row)
		}
		if _, err := fmt.Fprintf(w, "%s:\n", dir); err != nil {
			return err
		}
		if err := report.Table(w, headers, rows); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// --- Figure 3 ----------------------------------------------------------------

func runFig3(ctx context.Context, p *Pipeline, w io.Writer) error {
	ms, err := fig3Rows(ctx, p, FigureParams{}, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 3: average per-subscription daily traffic (MB)"); err != nil {
		return err
	}
	rows := make([][]string, 0, len(ms))
	series := make([][]float64, 4)
	for _, m := range ms {
		vals := []float64{m.ADSLDownBytes, m.FTTHDownBytes, m.ADSLUpBytes, m.FTTHUpBytes}
		row := []string{m.Month}
		for i, v := range vals {
			row = append(row, report.MB(v))
			series[i] = append(series[i], v/(1<<20))
		}
		rows = append(rows, row)
	}
	if err := report.Table(w, []string{"month", "ADSL down", "FTTH down", "ADSL up", "FTTH up"}, rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\ntrends (first ... last month):"); err != nil {
		return err
	}
	for i, label := range []string{"ADSL down", "FTTH down", "ADSL up", "FTTH up"} {
		if err := report.SparkRow(w, label, series[i], "MB"); err != nil {
			return err
		}
	}
	return nil
}

// --- Figure 4 ----------------------------------------------------------------

func runFig4(ctx context.Context, p *Pipeline, w io.Writer) error {
	rs, err := fig4Rows(ctx, p, FigureParams{}, aprilDays(0))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 4: download ratio Apr 2017 / Apr 2014 by hour (Bezier-smoothed)"); err != nil {
		return err
	}
	if len(rs) == 0 {
		_, err := fmt.Fprintln(w, "(no data: both comparison periods are empty)")
		return err
	}
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{fmt.Sprintf("%05.2f", r.Hour), report.F(r.ADSLRatio), report.F(r.FTTHRatio)})
	}
	return report.Table(w, []string{"hour", "ADSL ratio", "FTTH ratio"}, rows)
}

// --- Figure 5 ----------------------------------------------------------------

func runFig5(ctx context.Context, p *Pipeline, w io.Writer) error {
	rs, err := fig5Rows(ctx, p, FigureParams{}, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 5: yearly mean popularity (% of active ADSL users) and byte share"); err != nil {
		return err
	}
	years := []int{2013, 2014, 2015, 2016, 2017}
	headers := []string{"service"}
	for _, y := range years {
		headers = append(headers, fmt.Sprintf("pop%%%d", y))
	}
	for _, y := range years {
		headers = append(headers, fmt.Sprintf("byte%%%d", y))
	}
	var rows [][]string
	labels := make([]string, 0, len(classify.FigureServices))
	popRows := make([][]float64, 0, len(classify.FigureServices))
	shareRows := make([][]float64, 0, len(classify.FigureServices))
	for _, svc := range classify.FigureServices {
		var pop, share daySeries
		for _, r := range rs.Popularity {
			if r.Service == string(svc) {
				pop.add(r.Day, r.ADSLPopPct)
			}
		}
		for _, r := range rs.ByteShare {
			if r.Service == string(svc) {
				share.add(r.Day, r.SharePct)
			}
		}
		row := []string{string(svc)}
		for _, y := range years {
			row = append(row, report.F(pop.yearMean(y)))
		}
		for _, y := range years {
			row = append(row, report.F(share.yearMean(y)))
		}
		rows = append(rows, row)
		labels = append(labels, string(svc))
		popRows = append(popRows, pop.vals)
		shareRows = append(shareRows, share.vals)
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	// The heatmaps of Figure 5, one column per sampled day. The byte
	// share palette caps at 10% exactly as the paper's does ("the
	// multi-color palette is set to 10% to improve the visualization").
	if _, err := fmt.Fprintln(w, "\npopularity over time (Fig 5a, palette capped at 50%):"); err != nil {
		return err
	}
	if err := report.Heatmap(w, labels, popRows, 50, "% of active users"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\ndownloaded byte share over time (Fig 5b):"); err != nil {
		return err
	}
	return report.Heatmap(w, labels, shareRows, 10, "% of bytes")
}

// daySeries is one service's column of the fig5 rows, in day order.
type daySeries struct {
	days []string
	vals []float64
}

func (s *daySeries) add(day string, v float64) {
	s.days = append(s.days, day)
	s.vals = append(s.vals, v)
}

// yearMean averages the values of one year's days (0 when it has none).
func (s daySeries) yearMean(year int) float64 {
	prefix := strconv.Itoa(year) + "-"
	var sum float64
	var n int
	for i, day := range s.days {
		if strings.HasPrefix(day, prefix) {
			sum += s.vals[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// --- Figures 6, 7, 9 ----------------------------------------------------------

// serviceStory renders one service's popularity/volume series at
// half-year resolution.
func serviceStory(w io.Writer, aggs []*analytics.DayAgg, svc classify.Service, volDir string) error {
	series := analytics.ServiceSeries(aggs, svc)
	type bucket struct {
		pop [2]float64
		vol [2]float64
		n   [2]float64
	}
	buckets := make(map[time.Time]*bucket)
	for _, pt := range series {
		h := halfYear(pt.Day)
		b := buckets[h]
		if b == nil {
			b = &bucket{}
			buckets[h] = b
		}
		for ti := 0; ti < 2; ti++ {
			b.pop[ti] += pt.PopPct[ti]
			v := pt.VolPerUser[ti]
			if volDir == "down" {
				v = pt.DownPerUser[ti]
			}
			b.vol[ti] += v
			b.n[ti]++
		}
	}
	var keys []time.Time
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		b := buckets[k]
		row := []string{report.Month(k)}
		for ti := 0; ti < 2; ti++ {
			pop, vol := 0.0, 0.0
			if b.n[ti] > 0 {
				pop = b.pop[ti] / b.n[ti]
				vol = b.vol[ti] / b.n[ti]
			}
			row = append(row, report.F(pop), report.MB(vol))
		}
		rows = append(rows, row)
	}
	if _, err := fmt.Fprintf(w, "%s:\n", svc); err != nil {
		return err
	}
	if err := report.Table(w, []string{"half-year", "ADSL pop%", "ADSL MB/user", "FTTH pop%", "FTTH MB/user"}, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func halfYear(d time.Time) time.Time {
	m := time.January
	if d.Month() >= time.July {
		m = time.July
	}
	return time.Date(d.Year(), m, 1, 0, 0, 0, 0, time.UTC)
}

func runFig6(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 6: P2P, Netflix, YouTube (popularity %, exchanged MB per user-day)"); err != nil {
		return err
	}
	for _, svc := range []classify.Service{analytics.P2PService, "Netflix", "YouTube"} {
		if err := serviceStory(w, aggs, svc, "total"); err != nil {
			return err
		}
	}
	return nil
}

func runFig7(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 7: SnapChat, WhatsApp, Instagram (popularity %, exchanged MB per user-day)"); err != nil {
		return err
	}
	for _, svc := range []classify.Service{"SnapChat", "WhatsApp", "Instagram"} {
		if err := serviceStory(w, aggs, svc, "total"); err != nil {
			return err
		}
	}
	return nil
}

func runFig9(ctx context.Context, p *Pipeline, w io.Writer) error {
	days := Lookup0("fig9").Days(p.Stride())
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return err
	}
	series := analytics.ServiceSeries(aggs, "Facebook")
	if err := report.Section(w, "Figure 9: Facebook exchanged MB per user-day through 2014 (auto-play rollout)"); err != nil {
		return err
	}
	type acc struct {
		vol, n float64
	}
	byMonth := make(map[time.Time]*acc)
	for _, pt := range series {
		m := asn.MonthStart(pt.Day)
		a := byMonth[m]
		if a == nil {
			a = &acc{}
			byMonth[m] = a
		}
		// ADSL and FTTH jointly, weighted equally by day.
		a.vol += (pt.VolPerUser[0] + pt.VolPerUser[1]) / 2
		a.n++
	}
	var months []time.Time
	for m := range byMonth {
		months = append(months, m)
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })
	rows := make([][]string, 0, len(months))
	for _, m := range months {
		a := byMonth[m]
		rows = append(rows, []string{report.Month(m), report.MB(a.vol / a.n)})
	}
	return report.Table(w, []string{"month", "MB/user/day"}, rows)
}

// --- Figure 8 ----------------------------------------------------------------

func runFig8(ctx context.Context, p *Pipeline, w io.Writer) error {
	shares, err := fig8Rows(ctx, p, FigureParams{}, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 8: web protocol share of web bytes, monthly"); err != nil {
		return err
	}
	protos := analytics.WebProtos()
	headers := []string{"month"}
	for _, proto := range protos {
		headers = append(headers, proto.String())
	}
	rows := make([][]string, 0, len(shares))
	for _, s := range shares {
		row := []string{s.Month}
		for _, proto := range protos {
			row = append(row, report.F(s.SharePct[proto.String()]))
		}
		rows = append(rows, row)
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\nshares over time:"); err != nil {
		return err
	}
	for _, proto := range protos {
		var vals []float64
		for _, s := range shares {
			vals = append(vals, s.SharePct[proto.String()])
		}
		if err := report.SparkRow(w, proto.String(), vals, "%"); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(w, "\nevents: A=2014-01 YouTube->HTTPS  B=2014-10 QUIC on  C=2015-06 SPDY visible\n"+
		"        D=2015-12 QUIC off ~1mo  E=2016-02 SPDY->HTTP/2  F=2016-11 FB-Zero")
	return err
}

// --- Figure 10 -----------------------------------------------------------------

func runFig10(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, aprilDays(0))
	if err != nil {
		return err
	}
	a14, a17 := splitAprils(aggs)
	if err := report.Section(w, "Figure 10: CDF of per-flow minimum RTT (ms)"); err != nil {
		return err
	}
	xs := []float64{1, 3.5, 11, 22, 33, 100}
	headers := []string{"curve", "N"}
	for _, x := range xs {
		headers = append(headers, fmt.Sprintf("P(<=%sms)", report.F(x)))
	}
	var rows [][]string
	for _, c := range []struct {
		label string
		aggs  []*analytics.DayAgg
		svc   classify.Service
	}{
		{"Facebook 2014", a14, "Facebook"},
		{"Facebook 2017", a17, "Facebook"},
		{"Instagram 2014", a14, "Instagram"},
		{"Instagram 2017", a17, "Instagram"},
		{"YouTube 2014", a14, "YouTube"},
		{"YouTube 2017", a17, "YouTube"},
		{"Google 2014", a14, "Google"},
		{"Google 2017", a17, "Google"},
		{"WhatsApp 2017", a17, "WhatsApp"},
	} {
		dist := analytics.RTTDist(c.aggs, c.svc)
		row := []string{c.label, fmt.Sprint(dist.N())}
		for _, x := range xs {
			row = append(row, report.F(dist.P(x)))
		}
		rows = append(rows, row)
	}
	return report.Table(w, headers, rows)
}

// --- Figure 11 -----------------------------------------------------------------

func runFig11(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Figure 11: infrastructure evolution (per-day server addresses, half-year means)"); err != nil {
		return err
	}
	for _, svc := range []classify.Service{"Facebook", "Instagram", "YouTube"} {
		if err := fig11Service(p, w, aggs, svc); err != nil {
			return err
		}
	}
	return nil
}

func fig11Service(p *Pipeline, w io.Writer, aggs []*analytics.DayAgg, svc classify.Service) error {
	foot := analytics.ServerFootprint(aggs, svc)
	asnPts := analytics.ASNBreakdown(aggs, svc, p.RIBs)
	domains := analytics.DomainShares(aggs, svc)

	type acc struct {
		ded, sh float64
		byOrg   map[asn.Org]float64
		n       float64
	}
	buckets := make(map[time.Time]*acc)
	for i := range foot {
		h := halfYear(foot[i].Day)
		b := buckets[h]
		if b == nil {
			b = &acc{byOrg: make(map[asn.Org]float64)}
			buckets[h] = b
		}
		b.ded += float64(foot[i].Dedicated)
		b.sh += float64(foot[i].Shared)
		for org, n := range asnPts[i].ByOrg {
			b.byOrg[org] += float64(n)
		}
		b.n++
	}
	var keys []time.Time
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })

	orgs := []asn.Org{asn.OrgFacebook, asn.OrgAkamai, asn.OrgGoogle, asn.OrgTeliaNet, asn.OrgGTT, asn.OrgISP, asn.OrgOther}
	headers := []string{"half-year", "dedicated/day", "shared/day"}
	for _, o := range orgs {
		headers = append(headers, string(o))
	}
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		b := buckets[k]
		row := []string{report.Month(k), report.F(b.ded / b.n), report.F(b.sh / b.n)}
		for _, o := range orgs {
			row = append(row, report.F(b.byOrg[o]/b.n))
		}
		rows = append(rows, row)
	}
	if _, err := fmt.Fprintf(w, "%s servers:\n", svc); err != nil {
		return err
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}

	// Domain shares: top domains by latest-year share.
	if len(domains) > 0 {
		last := domains[len(domains)-1]
		type ds struct {
			dom   string
			share float64
		}
		var list []ds
		seen := make(map[string]bool)
		for _, dp := range domains {
			for dom := range dp.SharePct {
				if !seen[dom] {
					seen[dom] = true
					list = append(list, ds{dom: dom})
				}
			}
		}
		for i := range list {
			list[i].share = last.SharePct[list[i].dom]
		}
		sort.Slice(list, func(i, j int) bool { return list[i].dom < list[j].dom })
		hdr := []string{"month"}
		for _, d := range list {
			hdr = append(hdr, d.dom)
		}
		var drows [][]string
		for _, dp := range domains {
			if dp.Month.Month() != time.January && dp.Month.Month() != time.July {
				continue
			}
			row := []string{report.Month(dp.Month)}
			for _, d := range list {
				row = append(row, report.F(dp.SharePct[d.dom]))
			}
			drows = append(drows, row)
		}
		if _, err := fmt.Fprintf(w, "%s domain byte shares (%%):\n", svc); err != nil {
			return err
		}
		if err := report.Table(w, hdr, drows); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
