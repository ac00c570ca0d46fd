package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/flowrec"
)

// The figure endpoints. Each one answers with the same numbers the
// batch edgereport figure renders — the handlers call the exact tier
// functions the experiments call (MonthlySeriesTier, ActiveSeriesTier,
// ProtoSharesTier, Aggregate + the analytics folds), so tier
// selection, the shared agg cache and hot-day checkpoint serving all
// apply unchanged. The serve-equivalence test tier holds the two
// derivations byte-identical on a golden lake.

// FigureResponse is the JSON envelope of /v1/figures/{name}.
type FigureResponse struct {
	Figure string `json:"figure"`
	Title  string `json:"title"`
	From   string `json:"from"`
	To     string `json:"to"`
	Stride int    `json:"stride"`
	Days   int    `json:"days"`
	// Tier names the read path: "rollup+day" when the rollup tier can
	// answer coarse windows, "day" for the flat per-day fold. Hot
	// (unsealed) days additionally serve from ingest checkpoints on
	// either path.
	Tier string `json:"tier"`
	Rows any    `json:"rows"`
}

// QPoint is one quantile of a served distribution.
type QPoint struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// csvTable is a figure's CSV rendering.
type csvTable struct {
	headers []string
	rows    [][]string
}

// figureSpec describes one served figure: its parameter surface and
// the query runner producing JSON rows + the CSV table.
type figureSpec struct {
	id, title string
	// tiered figures answer from rollups when the tier is enabled.
	tiered bool
	// fixedRange figures (fig4's Apr-2017/Apr-2014 ratio) reject
	// from/to — a half-overridden comparison window would silently
	// change the figure's meaning.
	fixedRange bool
	// parameter applicability; inapplicable parameters are 400s, not
	// silently ignored.
	allowQuantiles, allowTech, allowService, allowPoints bool

	run func(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error)
}

// figureSpecs is the served-figure registry, keyed by experiment ID.
var figureSpecs = map[string]*figureSpec{
	"active": {
		id: "active", title: "share of active subscribers per day",
		tiered: true, run: runActiveFigure,
	},
	"fig2": {
		id: "fig2", title: "per-active-subscriber daily traffic distribution",
		allowQuantiles: true, allowTech: true, run: runFig2Figure,
	},
	"fig3": {
		id: "fig3", title: "average per-subscription daily traffic by month",
		tiered: true, run: runFig3Figure,
	},
	"fig4": {
		id: "fig4", title: "download growth ratio Apr 2017 / Apr 2014 by time of day",
		fixedRange: true, allowPoints: true, run: runFig4Figure,
	},
	"fig5": {
		id: "fig5", title: "service popularity and byte share per day",
		allowService: true, run: runFig5Figure,
	},
	"fig8": {
		id: "fig8", title: "web protocol share of web bytes, monthly",
		tiered: true, run: runFig8Figure,
	},
	"fig10": {
		id: "fig10", title: "per-flow minimum RTT quantiles by service",
		allowQuantiles: true, allowService: true, run: runFig10Figure,
	},
}

// queryFigure answers GET /v1/figures/{name}.
func (s *Server) queryFigure(ctx context.Context, r *http.Request) (*result, error) {
	name := r.PathValue("name")
	spec := figureSpecs[name]
	if spec == nil {
		if _, known := core.Lookup(name); known {
			return nil, &errNotFound{msg: "experiment " + name + " has no figure endpoint (see /v1/experiments)"}
		}
		return nil, &errNotFound{msg: "unknown figure " + name}
	}
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if err := spec.checkParams(q); err != nil {
		return nil, err
	}

	// Every figure reads exactly its window's days (fig4's fixed
	// comparison months are its window), stamped before the run.
	days, stride := spec.window(s.p, q)
	reads := s.readDays(days)
	rows, table, err := spec.run(ctx, s.p, q, days)
	if err != nil {
		return nil, err
	}
	var res *result
	if q.Format == "csv" {
		res, err = csvResult(table.headers, table.rows)
	} else {
		tier := "day"
		if spec.tiered && s.p.RollupsEnabled() {
			tier = "rollup+day"
		}
		resp := FigureResponse{
			Figure: spec.id,
			Title:  spec.title,
			Stride: stride,
			Days:   len(days),
			Tier:   tier,
			Rows:   rows,
		}
		if len(days) > 0 {
			resp.From = days[0].Format("2006-01-02")
			resp.To = days[len(days)-1].Format("2006-01-02")
		}
		res, err = jsonResult(resp)
	}
	if err != nil {
		return nil, err
	}
	res.reads = reads
	return res, nil
}

// checkParams rejects parameters the figure does not consume.
func (s *figureSpec) checkParams(q Query) error {
	switch {
	case s.fixedRange && !q.From.IsZero():
		return badf("%s has a fixed comparison window; from/to do not apply", s.id)
	case len(q.Quantiles) > 0 && !s.allowQuantiles:
		return badf("%s does not take quantiles=", s.id)
	case q.Tech != "" && !s.allowTech:
		return badf("%s does not take tech=", s.id)
	case len(q.Services) > 0 && !s.allowService:
		return badf("%s does not take service=", s.id)
	case q.Points != 0 && !s.allowPoints:
		return badf("%s does not take points=", s.id)
	case q.Proto != "" || q.HasSrvPort || q.Limit != 0 || q.Stream:
		return badf("proto/srvport/limit/stream apply to /v1/scan only")
	}
	return nil
}

// window resolves the figure's day grid: an explicit from/to range at
// the requested stride (default 1), or the experiment's default days
// under the pipeline stride.
func (s *figureSpec) window(p *core.Pipeline, q Query) ([]time.Time, int) {
	if !q.From.IsZero() {
		stride := q.Stride
		if stride <= 0 {
			stride = 1
		}
		return core.RangeDays(q.From, q.To, stride), stride
	}
	e, _ := core.Lookup(s.id)
	return e.Days(p.Stride()), p.Stride()
}

// --- active ------------------------------------------------------------------

// ActiveRow mirrors the batch active-share table.
type ActiveRow struct {
	Day       string  `json:"day"`
	Active    int     `json:"active"`
	Observed  int     `json:"observed"`
	ActivePct float64 `json:"active_pct"`
}

func runActiveFigure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	pts, err := p.ActiveSeriesTier(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	rows := make([]ActiveRow, 0, len(pts))
	table := csvTable{headers: []string{"day", "active", "observed", "active_pct"}}
	for _, pt := range pts {
		rows = append(rows, ActiveRow{
			Day: pt.Day.Format("2006-01-02"), Active: pt.Active,
			Observed: pt.Observed, ActivePct: pt.ActivePct,
		})
		table.rows = append(table.rows, []string{
			pt.Day.Format("2006-01-02"), strconv.Itoa(pt.Active),
			strconv.Itoa(pt.Observed), fmtFloat(pt.ActivePct),
		})
	}
	return rows, table, nil
}

// --- fig2 --------------------------------------------------------------------

// DistRow is one per-tech, per-direction daily-volume distribution.
type DistRow struct {
	Tech      string   `json:"tech"`
	Dir       string   `json:"dir"`
	N         int      `json:"n"`
	MeanBytes float64  `json:"mean_bytes"`
	Quantiles []QPoint `json:"quantiles"`
}

// defaultVolumeQuantiles parameterise fig2 when quantiles= is absent.
var defaultVolumeQuantiles = []float64{0.5, 0.9, 0.99}

func runFig2Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	quantiles := q.Quantiles
	if len(quantiles) == 0 {
		quantiles = defaultVolumeQuantiles
	}
	techs := []flowrec.AccessTech{flowrec.TechADSL, flowrec.TechFTTH}
	if q.Tech == "adsl" {
		techs = techs[:1]
	} else if q.Tech == "ftth" {
		techs = techs[1:]
	}
	var rows []DistRow
	table := csvTable{headers: []string{"tech", "dir", "n", "mean_bytes", "q", "bytes"}}
	for _, tech := range techs {
		for _, dir := range []analytics.Dir{analytics.Down, analytics.Up} {
			dist := analytics.DailyVolumeDist(aggs, tech, dir)
			row := DistRow{Tech: techName(tech), Dir: dir.String(), N: dist.N(), MeanBytes: dist.Mean()}
			for _, qq := range quantiles {
				v := dist.Quantile(qq)
				row.Quantiles = append(row.Quantiles, QPoint{Q: qq, V: v})
				table.rows = append(table.rows, []string{
					row.Tech, row.Dir, strconv.Itoa(row.N),
					fmtFloat(row.MeanBytes), fmtFloat(qq), fmtFloat(v),
				})
			}
			rows = append(rows, row)
		}
	}
	return rows, table, nil
}

func techName(t flowrec.AccessTech) string {
	if t == flowrec.TechFTTH {
		return "FTTH"
	}
	return "ADSL"
}

// --- fig3 --------------------------------------------------------------------

// MonthlyRow mirrors the batch fig3 table in raw bytes.
type MonthlyRow struct {
	Month         string  `json:"month"`
	ADSLDownBytes float64 `json:"adsl_down_bytes"`
	FTTHDownBytes float64 `json:"ftth_down_bytes"`
	ADSLUpBytes   float64 `json:"adsl_up_bytes"`
	FTTHUpBytes   float64 `json:"ftth_up_bytes"`
}

func runFig3Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	ms, err := p.MonthlySeriesTier(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	rows := make([]MonthlyRow, 0, len(ms))
	table := csvTable{headers: []string{"month", "adsl_down_bytes", "ftth_down_bytes", "adsl_up_bytes", "ftth_up_bytes"}}
	for _, m := range ms {
		r := MonthlyRow{
			Month:         m.Month.Format("2006-01"),
			ADSLDownBytes: m.Mean[0][analytics.Down],
			FTTHDownBytes: m.Mean[1][analytics.Down],
			ADSLUpBytes:   m.Mean[0][analytics.Up],
			FTTHUpBytes:   m.Mean[1][analytics.Up],
		}
		rows = append(rows, r)
		table.rows = append(table.rows, []string{
			r.Month, fmtFloat(r.ADSLDownBytes), fmtFloat(r.FTTHDownBytes),
			fmtFloat(r.ADSLUpBytes), fmtFloat(r.FTTHUpBytes),
		})
	}
	return rows, table, nil
}

// --- fig4 --------------------------------------------------------------------

// RatioRow is one smoothed point of the Apr-2017/Apr-2014 hourly
// download ratio.
type RatioRow struct {
	Hour      float64 `json:"hour"`
	ADSLRatio float64 `json:"adsl_ratio"`
	FTTHRatio float64 `json:"ftth_ratio"`
}

func runFig4Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	points := q.Points
	if points <= 0 {
		points = 25
	}
	adsl, err := core.Fig4Points(ctx, p, flowrec.TechADSL, points)
	if err != nil {
		return nil, csvTable{}, err
	}
	ftth, err := core.Fig4Points(ctx, p, flowrec.TechFTTH, points)
	if err != nil {
		return nil, csvTable{}, err
	}
	table := csvTable{headers: []string{"hour", "adsl_ratio", "ftth_ratio"}}
	var rows []RatioRow
	// Mirrors the batch guard: a fully degraded run with both windows
	// empty yields no curve, not an index panic.
	if len(adsl) >= points && len(ftth) >= points {
		for i := 0; i < points; i++ {
			r := RatioRow{Hour: adsl[i].X, ADSLRatio: adsl[i].Y, FTTHRatio: ftth[i].Y}
			rows = append(rows, r)
			table.rows = append(table.rows, []string{
				fmtFloat(r.Hour), fmtFloat(r.ADSLRatio), fmtFloat(r.FTTHRatio),
			})
		}
	}
	return rows, table, nil
}

// --- fig5 --------------------------------------------------------------------

// SvcPopRow is one day × service popularity sample.
type SvcPopRow struct {
	Day        string  `json:"day"`
	Service    string  `json:"service"`
	ADSLPopPct float64 `json:"adsl_pop_pct"`
	FTTHPopPct float64 `json:"ftth_pop_pct"`
}

// ShareRow is one day × service downloaded-byte share.
type ShareRow struct {
	Day      string  `json:"day"`
	Service  string  `json:"service"`
	SharePct float64 `json:"share_pct"`
}

// Fig5Rows carries the figure's two tables.
type Fig5Rows struct {
	Popularity []SvcPopRow `json:"popularity"`
	ByteShare  []ShareRow  `json:"byte_share"`
}

func runFig5Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	svcs := q.Services
	if len(svcs) == 0 {
		svcs = classify.FigureServices
	}
	var rows Fig5Rows
	table := csvTable{headers: []string{"table", "day", "service", "v1", "v2"}}
	for _, svc := range svcs {
		for _, pt := range analytics.ServiceSeries(aggs, svc) {
			rows.Popularity = append(rows.Popularity, SvcPopRow{
				Day: pt.Day.Format("2006-01-02"), Service: string(svc),
				ADSLPopPct: pt.PopPct[0], FTTHPopPct: pt.PopPct[1],
			})
			table.rows = append(table.rows, []string{
				"popularity", pt.Day.Format("2006-01-02"), string(svc),
				fmtFloat(pt.PopPct[0]), fmtFloat(pt.PopPct[1]),
			})
		}
	}
	for _, svc := range svcs {
		for _, pt := range analytics.ServiceByteShare(aggs, svc) {
			rows.ByteShare = append(rows.ByteShare, ShareRow{
				Day: pt.Day.Format("2006-01-02"), Service: string(svc), SharePct: pt.SharePct,
			})
			table.rows = append(table.rows, []string{
				"byte_share", pt.Day.Format("2006-01-02"), string(svc),
				fmtFloat(pt.SharePct), "",
			})
		}
	}
	return rows, table, nil
}

// --- fig8 --------------------------------------------------------------------

// ProtoRow is one month's web-protocol byte shares.
type ProtoRow struct {
	Month    string             `json:"month"`
	SharePct map[string]float64 `json:"share_pct"`
}

func runFig8Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	shares, err := p.ProtoSharesTier(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	protos := analytics.WebProtos()
	rows := make([]ProtoRow, 0, len(shares))
	table := csvTable{headers: []string{"month", "protocol", "share_pct"}}
	for _, s := range shares {
		r := ProtoRow{Month: s.Month.Format("2006-01"), SharePct: make(map[string]float64, len(protos))}
		for _, proto := range protos {
			r.SharePct[proto.String()] = s.SharePct[proto]
			table.rows = append(table.rows, []string{
				r.Month, proto.String(), fmtFloat(s.SharePct[proto]),
			})
		}
		rows = append(rows, r)
	}
	return rows, table, nil
}

// --- fig10 -------------------------------------------------------------------

// RTTRow is one service's minimum-RTT distribution over the window.
type RTTRow struct {
	Service     string   `json:"service"`
	N           int      `json:"n"`
	QuantilesMs []QPoint `json:"quantiles_ms"`
}

// defaultRTTServices mirrors the batch figure's curve set.
var defaultRTTServices = []classify.Service{"Facebook", "Instagram", "YouTube", "Google", "WhatsApp"}

// defaultRTTQuantiles parameterise fig10 when quantiles= is absent.
var defaultRTTQuantiles = []float64{0.25, 0.5, 0.75, 0.9, 0.99}

func runFig10Figure(ctx context.Context, p *core.Pipeline, q Query, days []time.Time) (any, csvTable, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, csvTable{}, err
	}
	svcs := q.Services
	if len(svcs) == 0 {
		svcs = defaultRTTServices
	}
	quantiles := q.Quantiles
	if len(quantiles) == 0 {
		quantiles = defaultRTTQuantiles
	}
	rows := make([]RTTRow, 0, len(svcs))
	table := csvTable{headers: []string{"service", "n", "q", "rtt_ms"}}
	for _, svc := range svcs {
		dist := analytics.RTTDist(aggs, svc)
		row := RTTRow{Service: string(svc), N: dist.N()}
		for _, qq := range quantiles {
			v := dist.Quantile(qq)
			row.QuantilesMs = append(row.QuantilesMs, QPoint{Q: qq, V: v})
			table.rows = append(table.rows, []string{
				row.Service, strconv.Itoa(row.N), fmtFloat(qq), fmtFloat(v),
			})
		}
		rows = append(rows, row)
	}
	return rows, table, nil
}

// fmtFloat renders a CSV float with full round-trip precision, so the
// CSV view carries exactly the JSON numbers.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
