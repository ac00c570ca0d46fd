package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/asn"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/report"
)

// Experiment is one reproducible table or figure of the paper: typed
// rows built once over its days, which the text, the {id}.csv export
// and, for a served figure, /v1/figures/{id} only render.
type Experiment struct {
	// ID is the handle used on the command line and in bench names
	// ("table1", "fig2", ... "fig11", "active").
	ID string
	// Title cites what the paper shows.
	Title string
	// Heading heads the experiment's text section.
	Heading string
	// Days lists the days of data the experiment consumes under a
	// given stride.
	Days func(stride int) []time.Time
	// Rows derives the experiment's table over days (through the
	// pipeline cache). Cancelling ctx aborts mid-aggregation.
	Rows func(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (Table, error)
	// Figure, when set, serves the experiment on /v1/figures/{id}.
	Figure *Figure
}

// Run builds the experiment's rows over its days and writes them as
// text under the experiment's heading.
func (e Experiment) Run(ctx context.Context, p *Pipeline, w io.Writer) error {
	rows, err := e.Rows(ctx, p, FigureParams{}, e.Days(p.Stride()))
	if err != nil {
		return err
	}
	var b bytes.Buffer
	report.Section(&b, e.Heading)
	rows.Text(&b)
	_, err = w.Write(b.Bytes())
	return err
}

// DataRows derives the experiment's data table over days: the rows
// /v1/figures/{id} serves and ExportData writes.
func (e Experiment) DataRows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (FigureRows, error) {
	if e.Figure != nil && e.Figure.Rows != nil {
		return e.Figure.Rows(ctx, p, fp, days)
	}
	return e.Rows(ctx, p, fp, days)
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:      "table1",
			Title:   "Table 1: domain-to-service associations",
			Heading: "Table 1: examples of domain-to-service associations",
			Days:    func(int) []time.Time { return nil },
			Rows:    tableOf(table1Rows),
		},
		{
			ID:      "active",
			Title:   "Section 3: share of active subscribers per day (~80%)",
			Heading: "Active subscribers (section 3 filter: ≥10 flows, >15 kB down, >5 kB up)",
			Days:    func(stride int) []time.Time { return RangeDays(date(2016, 4, 1), date(2016, 4, 30), 1) },
			Rows:    tableOf(activeRows),
			Figure:  &Figure{Title: "share of active subscribers per day", Tiered: true},
		},
		{
			ID:      "fig2",
			Title:   "Figure 2: CCDF of per-active-subscriber daily traffic, Apr 2014 vs Apr 2017",
			Heading: "Figure 2: CCDF of daily traffic per active subscriber",
			Days:    aprilDays,
			Rows:    tableOf(fig2Text),
			Figure:  &Figure{Title: "per-active-subscriber daily traffic distribution", Quantiles: true, Tech: true, Rows: fig2Rows},
		},
		{
			ID:      "fig3",
			Title:   "Figure 3: average per-subscription daily traffic over 54 months",
			Heading: "Figure 3: average per-subscription daily traffic (MB)",
			Days:    spanDays,
			Rows:    tableOf(fig3Rows),
			Figure:  &Figure{Title: "average per-subscription daily traffic by month", Tiered: true},
		},
		{
			ID:      "fig4",
			Title:   "Figure 4: download growth ratio Apr 2017 / Apr 2014 by time of day",
			Heading: "Figure 4: download ratio Apr 2017 / Apr 2014 by hour (Bezier-smoothed)",
			Days:    aprilDays,
			Rows:    tableOf(fig4Rows),
			Figure:  &Figure{Title: "download growth ratio Apr 2017 / Apr 2014 by time of day", FixedRange: true, Points: true},
		},
		{
			ID:      "fig5",
			Title:   "Figure 5: service popularity and byte share over time",
			Heading: "Figure 5: yearly mean popularity (% of active ADSL users) and byte share",
			Days:    spanDays,
			Rows:    tableOf(fig5Rows),
			Figure:  &Figure{Title: "service popularity and byte share per day", Services: true},
		},
		{
			ID:      "fig6",
			Title:   "Figure 6: P2P, Netflix, YouTube popularity and volumes",
			Heading: "Figure 6: P2P, Netflix, YouTube (popularity %, exchanged MB per user-day)",
			Days:    spanDays,
			Rows:    tableOf(storyRows(analytics.P2PService, "Netflix", "YouTube")),
		},
		{
			ID:      "fig7",
			Title:   "Figure 7: SnapChat, WhatsApp, Instagram popularity and volumes",
			Heading: "Figure 7: SnapChat, WhatsApp, Instagram (popularity %, exchanged MB per user-day)",
			Days:    spanDays,
			Rows:    tableOf(storyRows("SnapChat", "WhatsApp", "Instagram")),
		},
		{
			ID:      "fig8",
			Title:   "Figure 8: web protocol breakdown over 5 years (events A-F)",
			Heading: "Figure 8: web protocol share of web bytes, monthly",
			Days:    spanDays,
			Rows:    tableOf(fig8Rows),
			Figure:  &Figure{Title: "web protocol share of web bytes, monthly", Tiered: true},
		},
		{
			ID:      "fig9",
			Title:   "Figure 9: Facebook per-user daily traffic through 2014 (video auto-play)",
			Heading: "Figure 9: Facebook exchanged MB per user-day through 2014 (auto-play rollout)",
			Days: func(stride int) []time.Time {
				return RangeDays(date(2014, 1, 1), date(2014, 11, 30), max(stride/2, 1))
			},
			Rows: tableOf(fig9Rows),
		},
		{
			ID:      "fig10",
			Title:   "Figure 10: RTT CDFs 2014 vs 2017 (Facebook, Instagram, YouTube, Google)",
			Heading: "Figure 10: CDF of per-flow minimum RTT (ms)",
			Days:    aprilDays,
			Rows:    tableOf(fig10Text),
			Figure:  &Figure{Title: "per-flow minimum RTT quantiles by service", Quantiles: true, Services: true, Rows: fig10Rows},
		},
		{
			ID:      "fig11",
			Title:   "Figure 11: Facebook, Instagram, YouTube infrastructure evolution",
			Heading: "Figure 11: infrastructure evolution (per-day server addresses, half-year means)",
			Days:    spanDays,
			Rows:    tableOf(fig11Rows),
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

// byPeriod groups day aggregates by calendar period — start maps a
// day to the first day of its period — periods in time order, days in
// their input order.
func byPeriod(aggs []*analytics.DayAgg, start func(time.Time) time.Time) [][]*analytics.DayAgg {
	index := make(map[time.Time]int)
	var out [][]*analytics.DayAgg
	for _, a := range aggs {
		s := start(a.Day)
		i, ok := index[s]
		if !ok {
			i = len(out)
			index[s] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Day.Before(out[j][0].Day) })
	return out
}

// halfYear is the first day of d's half-year (January or July).
func halfYear(d time.Time) time.Time { return date(d.Year(), d.Month()-(d.Month()-1)%6, 1) }

// runs splits rows into maximal runs of equal key, in order.
func runs[R any](rows []R, key func(R) string) [][]R {
	var out [][]R
	for i, r := range rows {
		if i == 0 || key(r) != key(rows[i-1]) {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// --- Table 1 ---------------------------------------------------------------

// AssocRow is one example domain and the service the classifier
// associates with it.
type AssocRow struct {
	Domain  string `json:"domain"`
	Service string `json:"service"`
}

// AssocRows are table1.
type AssocRows []AssocRow

// table1Domains are the paper's examples; a note after the domain
// names the rule kind that matches it.
var table1Domains = []string{
	"facebook.com", "fbcdn.com", "fbstatic-a.akamaihd.net (regexp)", "netflix.com", "nflxvideo.net",
	"r3---sn-hpa7kn7s.googlevideo.com", "scontent.cdninstagram.com", "mmx-ds.cdn.whatsapp.net",
	"unclassified.example.org",
}

func table1Rows(_ context.Context, p *Pipeline, _ FigureParams, _ []time.Time) (AssocRows, error) {
	rows := make(AssocRows, 0, len(table1Domains))
	for _, d := range table1Domains {
		domain, _, _ := strings.Cut(d, " ")
		svc := string(p.Cls.Lookup(domain))
		if svc == "" {
			svc = "(unknown)"
		}
		rows = append(rows, AssocRow{Domain: d, Service: svc})
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs AssocRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table.
func (rs AssocRows) Text(b *bytes.Buffer) {
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{r.Domain, r.Service})
	}
	report.Table(b, []string{"Domain", "Service"}, rows)
}

// --- Figure 2 ----------------------------------------------------------------

// CCDFRow is one point of a Figure 2 curve: the share of one
// technology's active subscriber-days in one April whose traffic in
// one direction exceeds XBytes, with the curve's median.
type CCDFRow struct {
	Dir         string  `json:"dir"`
	Tech        string  `json:"tech"`
	Year        int     `json:"year"`
	MedianBytes float64 `json:"median_bytes"`
	XBytes      float64 `json:"x_bytes"`
	PAbove      float64 `json:"p_above"`
}

// CCDFRows are fig2's text table: direction, then curve, then
// threshold.
type CCDFRows []CCDFRow

// ccdfThresholds are fig2's thresholds per direction, in bytes.
var ccdfThresholds = map[analytics.Dir][]float64{
	analytics.Down: {10 << 20, 100 << 20, 500 << 20, 1 << 30, 3 << 30},
	analytics.Up:   {1 << 20, 10 << 20, 100 << 20, 500 << 20, 1 << 30},
}

func fig2Text(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (CCDFRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	a14, a17 := splitAprils(aggs)
	var rows CCDFRows
	for _, dir := range []analytics.Dir{analytics.Down, analytics.Up} {
		for _, c := range []struct {
			aggs []*analytics.DayAgg
			year int
			tech flowrec.AccessTech
		}{
			{a14, 2014, flowrec.TechADSL},
			{a17, 2017, flowrec.TechADSL},
			{a14, 2014, flowrec.TechFTTH},
			{a17, 2017, flowrec.TechFTTH},
		} {
			dist := analytics.DailyVolumeDist(c.aggs, c.tech, dir)
			median := dist.Median()
			for _, x := range ccdfThresholds[dir] {
				rows = append(rows, CCDFRow{Dir: dir.String(), Tech: c.tech.String(), Year: c.year,
					MedianBytes: median, XBytes: x, PAbove: dist.CCDF(x)})
			}
		}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs CCDFRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: one table per direction, one line per curve.
func (rs CCDFRows) Text(b *bytes.Buffer) {
	for _, dir := range runs(rs, func(r CCDFRow) string { return r.Dir }) {
		curves := runs(dir, func(r CCDFRow) string { return fmt.Sprint(r.Tech, r.Year) })
		headers := []string{"curve", "median(MB)"}
		for _, r := range curves[0] {
			headers = append(headers, fmt.Sprintf("P(>%sMB)", report.F(r.XBytes/(1<<20))))
		}
		var rows [][]string
		for _, c := range curves {
			row := []string{fmt.Sprintf("%s %d", c[0].Tech, c[0].Year), report.MB(c[0].MedianBytes)}
			for _, r := range c {
				row = append(row, report.F(r.PAbove))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(b, "%s:\n", dir[0].Dir)
		report.Table(b, headers, rows)
		b.WriteByte('\n')
	}
}

// --- Figures 6, 7 --------------------------------------------------------------

// StoryRow is one half-year of a service's story (Figures 6 and 7):
// mean daily popularity (% of active subscribers) and exchanged bytes
// per visiting subscriber, by access technology.
type StoryRow struct {
	Service          string  `json:"service"`
	HalfYear         string  `json:"half_year"`
	ADSLPopPct       float64 `json:"adsl_pop_pct"`
	ADSLBytesPerUser float64 `json:"adsl_bytes_per_user"`
	FTTHPopPct       float64 `json:"ftth_pop_pct"`
	FTTHBytesPerUser float64 `json:"ftth_bytes_per_user"`
}

// StoryRows are fig6 and fig7, service by service.
type StoryRows []StoryRow

// storyRows builds the half-year stories of svcs.
func storyRows(svcs ...classify.Service) func(context.Context, *Pipeline, FigureParams, []time.Time) (StoryRows, error) {
	return func(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (StoryRows, error) {
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return nil, err
		}
		periods := byPeriod(aggs, halfYear)
		var rows StoryRows
		for _, svc := range svcs {
			for _, g := range periods {
				var sum [2][2]float64 // [tech][pop, vol]
				for _, pt := range analytics.ServiceSeries(g, svc) {
					for ti := 0; ti < 2; ti++ {
						sum[ti][0] += pt.PopPct[ti]
						sum[ti][1] += pt.VolPerUser[ti]
					}
				}
				n := float64(len(g))
				rows = append(rows, StoryRow{
					Service: string(svc), HalfYear: report.Month(halfYear(g[0].Day)),
					ADSLPopPct: sum[0][0] / n, ADSLBytesPerUser: sum[0][1] / n,
					FTTHPopPct: sum[1][0] / n, FTTHBytesPerUser: sum[1][1] / n,
				})
			}
		}
		return rows, nil
	}
}

// CSV implements FigureRows.
func (rs StoryRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: one table per service.
func (rs StoryRows) Text(b *bytes.Buffer) {
	for _, svc := range runs(rs, func(r StoryRow) string { return r.Service }) {
		rows := make([][]string, 0, len(svc))
		for _, r := range svc {
			rows = append(rows, []string{r.HalfYear,
				report.F(r.ADSLPopPct), report.MB(r.ADSLBytesPerUser),
				report.F(r.FTTHPopPct), report.MB(r.FTTHBytesPerUser)})
		}
		fmt.Fprintf(b, "%s:\n", svc[0].Service)
		report.Table(b, []string{"half-year", "ADSL pop%", "ADSL MB/user", "FTTH pop%", "FTTH MB/user"}, rows)
		b.WriteByte('\n')
	}
}

// --- Figure 9 ------------------------------------------------------------------

// VolumeRow is one month of Figure 9: Facebook's mean exchanged bytes
// per visiting subscriber-day, ADSL and FTTH weighted equally.
type VolumeRow struct {
	Month        string  `json:"month"`
	BytesPerUser float64 `json:"bytes_per_user"`
}

// VolumeRows are fig9.
type VolumeRows []VolumeRow

func fig9Rows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (VolumeRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	var rows VolumeRows
	for _, g := range byPeriod(aggs, asn.MonthStart) {
		var vol float64
		for _, pt := range analytics.ServiceSeries(g, "Facebook") {
			vol += (pt.VolPerUser[0] + pt.VolPerUser[1]) / 2
		}
		rows = append(rows, VolumeRow{Month: report.Month(g[0].Day), BytesPerUser: vol / float64(len(g))})
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs VolumeRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table.
func (rs VolumeRows) Text(b *bytes.Buffer) {
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{r.Month, report.MB(r.BytesPerUser)})
	}
	report.Table(b, []string{"month", "MB/user/day"}, rows)
}

// --- Figure 10 -----------------------------------------------------------------

// RTTCDFRow is one point of a Figure 10 curve: the share of a
// service's flows in one April whose minimum RTT is at most XMs, with
// the curve's flow count.
type RTTCDFRow struct {
	Service string  `json:"service"`
	Year    int     `json:"year"`
	N       int     `json:"n"`
	XMs     float64 `json:"x_ms"`
	PAtMost float64 `json:"p_at_most"`
}

// RTTCDFRows are fig10's text table: curve, then threshold.
type RTTCDFRows []RTTCDFRow

func fig10Text(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (RTTCDFRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	a14, a17 := splitAprils(aggs)
	var rows RTTCDFRows
	for _, c := range []struct {
		aggs []*analytics.DayAgg
		year int
		svc  classify.Service
	}{
		{a14, 2014, "Facebook"},
		{a17, 2017, "Facebook"},
		{a14, 2014, "Instagram"},
		{a17, 2017, "Instagram"},
		{a14, 2014, "YouTube"},
		{a17, 2017, "YouTube"},
		{a14, 2014, "Google"},
		{a17, 2017, "Google"},
		{a17, 2017, "WhatsApp"},
	} {
		dist := analytics.RTTDist(c.aggs, c.svc)
		for _, x := range []float64{1, 3.5, 11, 22, 33, 100} {
			rows = append(rows, RTTCDFRow{Service: string(c.svc), Year: c.year, N: dist.N(), XMs: x, PAtMost: dist.P(x)})
		}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs RTTCDFRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: one line per curve.
func (rs RTTCDFRows) Text(b *bytes.Buffer) {
	curves := runs(rs, func(r RTTCDFRow) string { return fmt.Sprint(r.Service, r.Year) })
	headers := []string{"curve", "N"}
	var rows [][]string
	for i, c := range curves {
		row := []string{fmt.Sprintf("%s %d", c[0].Service, c[0].Year), fmt.Sprint(c[0].N)}
		for _, r := range c {
			if i == 0 {
				headers = append(headers, fmt.Sprintf("P(<=%sms)", report.F(r.XMs)))
			}
			row = append(row, report.F(r.PAtMost))
		}
		rows = append(rows, row)
	}
	report.Table(b, headers, rows)
}

// --- Figure 11 -----------------------------------------------------------------

// Fig11Row is one value of Figure 11. In table "servers" it is a
// service's half-year mean of per-day server addresses: dedicated,
// shared, or owned by the organisation Column. In table "domain
// shares" it is the service's byte share (%) of second-level domain
// Column in one January or July month.
type Fig11Row struct {
	Table   string  `json:"table"`
	Service string  `json:"service"`
	Period  string  `json:"period"`
	Column  string  `json:"column"`
	Value   float64 `json:"value"`
}

// Fig11Rows are fig11: service, then table, then period, then column.
type Fig11Rows []Fig11Row

// fig11Orgs are the server table's organisation columns.
var fig11Orgs = []asn.Org{asn.OrgFacebook, asn.OrgAkamai, asn.OrgGoogle, asn.OrgTeliaNet, asn.OrgGTT, asn.OrgISP, asn.OrgOther}

func fig11Rows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (Fig11Rows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	periods := byPeriod(aggs, halfYear)
	var rows Fig11Rows
	for _, svc := range []classify.Service{"Facebook", "Instagram", "YouTube"} {
		add := func(table, period, column string, v float64) {
			rows = append(rows, Fig11Row{Table: table, Service: string(svc), Period: period, Column: column, Value: v})
		}
		for _, g := range periods {
			var ded, sh float64
			byOrg := make(map[asn.Org]float64)
			for _, pt := range analytics.ServerFootprint(g, svc) {
				ded += float64(pt.Dedicated)
				sh += float64(pt.Shared)
			}
			for _, pt := range analytics.ASNBreakdown(g, svc, p.RIBs) {
				for org, n := range pt.ByOrg {
					byOrg[org] += float64(n)
				}
			}
			n, half := float64(len(g)), report.Month(halfYear(g[0].Day))
			add("servers", half, "dedicated/day", ded/n)
			add("servers", half, "shared/day", sh/n)
			for _, o := range fig11Orgs {
				add("servers", half, string(o), byOrg[o]/n)
			}
		}

		// Every domain the service used in the window, by name.
		domains := analytics.DomainShares(aggs, svc)
		seen := make(map[string]bool)
		for _, dp := range domains {
			for dom := range dp.SharePct {
				seen[dom] = true
			}
		}
		for _, dp := range domains {
			if dp.Month.Month() == time.January || dp.Month.Month() == time.July {
				for _, dom := range sortedKeys(seen) {
					add("domain shares", report.Month(dp.Month), dom, dp.SharePct[dom])
				}
			}
		}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs Fig11Rows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: per service, the server table, then its
// domain shares, one line per period.
func (rs Fig11Rows) Text(b *bytes.Buffer) {
	for _, svc := range runs(rs, func(r Fig11Row) string { return r.Service }) {
		for _, table := range runs(svc, func(r Fig11Row) string { return r.Table }) {
			title, headers := "%s servers:\n", []string{"half-year"}
			if table[0].Table == "domain shares" {
				title, headers = "%s domain byte shares (%%):\n", []string{"month"}
			}
			var rows [][]string
			for i, period := range runs(table, func(r Fig11Row) string { return r.Period }) {
				row := []string{period[0].Period}
				for _, r := range period {
					if i == 0 {
						headers = append(headers, r.Column)
					}
					row = append(row, report.F(r.Value))
				}
				rows = append(rows, row)
			}
			fmt.Fprintf(b, title, svc[0].Service)
			report.Table(b, headers, rows)
		}
		b.WriteByte('\n')
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
