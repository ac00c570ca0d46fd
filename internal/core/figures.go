package core

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/report"
)

// Figure is an experiment's data table: the typed rows it serves on
// /v1/figures/{id} and exports as {id}.csv.
type Figure struct {
	// Title is the served title.
	Title string
	// Tiered figures answer from rollups when the tier is enabled.
	Tiered bool
	// FixedRange figures (fig4's Apr-2017/Apr-2014 ratio) reject
	// from/to — a half-overridden comparison window would silently
	// change the figure's meaning.
	FixedRange bool
	// The parameters the figure consumes; any other is a client error.
	Quantiles, Tech, Services, Points bool
	// Rows derives the figure over days.
	Rows func(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (FigureRows, error)
}

// FigureParams are a figure's optional parameters; a zero field
// selects the figure's default.
type FigureParams struct {
	Quantiles []float64
	// Tech is "", "adsl" or "ftth".
	Tech     string
	Services []classify.Service
	// Points is fig4's smoothing resolution.
	Points int
}

// FigureRows are one figure's typed rows. They marshal to JSON as they
// are; CSV renders them as a header record followed by the data
// records, floats at full round-trip precision.
type FigureRows interface{ CSV() [][]string }

// EncodeCSV renders rows as the figure's CSV body — the served
// ?format=csv answer and the exported file alike.
func EncodeCSV(rows FigureRows) ([]byte, error) {
	var buf bytes.Buffer
	err := csv.NewWriter(&buf).WriteAll(rows.CSV())
	return buf.Bytes(), err
}

// rowsOf adapts a typed rows builder to Figure.Rows.
func rowsOf[R FigureRows](build func(context.Context, *Pipeline, FigureParams, []time.Time) (R, error)) func(context.Context, *Pipeline, FigureParams, []time.Time) (FigureRows, error) {
	return func(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (FigureRows, error) {
		return build(ctx, p, fp, days)
	}
}

// fmtFloat renders a CSV float with full round-trip precision, so the
// CSV view carries exactly the JSON numbers.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// QPoint is one quantile of a distribution.
type QPoint struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// --- active ------------------------------------------------------------------

// ActiveRow is one day's active-subscriber share.
type ActiveRow struct {
	Day       string  `json:"day"`
	Active    int     `json:"active"`
	Observed  int     `json:"observed"`
	ActivePct float64 `json:"active_pct"`
}

// ActiveRows are the active figure.
type ActiveRows []ActiveRow

func activeRows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (ActiveRows, error) {
	pts, err := p.ActiveSeriesTier(ctx, days)
	if err != nil {
		return nil, err
	}
	rows := make(ActiveRows, 0, len(pts))
	for _, pt := range pts {
		rows = append(rows, ActiveRow{Day: report.Day(pt.Day), Active: pt.Active, Observed: pt.Observed, ActivePct: pt.ActivePct})
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs ActiveRows) CSV() [][]string {
	out := [][]string{{"day", "active", "observed", "active_pct"}}
	for _, r := range rs {
		out = append(out, []string{r.Day, strconv.Itoa(r.Active), strconv.Itoa(r.Observed), fmtFloat(r.ActivePct)})
	}
	return out
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

// DistRows are fig2.
type DistRows []DistRow

// defaultVolumeQuantiles parameterise fig2 when quantiles= is absent.
var defaultVolumeQuantiles = []float64{0.5, 0.9, 0.99}

func fig2Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (DistRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	quantiles := fp.Quantiles
	if len(quantiles) == 0 {
		quantiles = defaultVolumeQuantiles
	}
	techs := []flowrec.AccessTech{flowrec.TechADSL, flowrec.TechFTTH}
	if fp.Tech == "adsl" {
		techs = techs[:1]
	} else if fp.Tech == "ftth" {
		techs = techs[1:]
	}
	var rows DistRows
	for _, tech := range techs {
		for _, dir := range []analytics.Dir{analytics.Down, analytics.Up} {
			dist := analytics.DailyVolumeDist(aggs, tech, dir)
			row := DistRow{Tech: tech.String(), Dir: dir.String(), N: dist.N(), MeanBytes: dist.Mean()}
			for _, q := range quantiles {
				row.Quantiles = append(row.Quantiles, QPoint{Q: q, V: dist.Quantile(q)})
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CSV implements FigureRows: one record per quantile.
func (rs DistRows) CSV() [][]string {
	out := [][]string{{"tech", "dir", "n", "mean_bytes", "q", "bytes"}}
	for _, r := range rs {
		for _, q := range r.Quantiles {
			out = append(out, []string{r.Tech, r.Dir, strconv.Itoa(r.N), fmtFloat(r.MeanBytes), fmtFloat(q.Q), fmtFloat(q.V)})
		}
	}
	return out
}

// --- fig3 --------------------------------------------------------------------

// MonthlyRow is one month of fig3 in raw bytes.
type MonthlyRow struct {
	Month         string  `json:"month"`
	ADSLDownBytes float64 `json:"adsl_down_bytes"`
	FTTHDownBytes float64 `json:"ftth_down_bytes"`
	ADSLUpBytes   float64 `json:"adsl_up_bytes"`
	FTTHUpBytes   float64 `json:"ftth_up_bytes"`
}

// MonthlyRows are fig3.
type MonthlyRows []MonthlyRow

func fig3Rows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (MonthlyRows, error) {
	ms, err := p.MonthlySeriesTier(ctx, days)
	if err != nil {
		return nil, err
	}
	rows := make(MonthlyRows, 0, len(ms))
	for _, m := range ms {
		rows = append(rows, MonthlyRow{
			Month:         report.Month(m.Month),
			ADSLDownBytes: m.Mean[0][analytics.Down],
			FTTHDownBytes: m.Mean[1][analytics.Down],
			ADSLUpBytes:   m.Mean[0][analytics.Up],
			FTTHUpBytes:   m.Mean[1][analytics.Up],
		})
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs MonthlyRows) CSV() [][]string {
	out := [][]string{{"month", "adsl_down_bytes", "ftth_down_bytes", "adsl_up_bytes", "ftth_up_bytes"}}
	for _, r := range rs {
		out = append(out, []string{r.Month, fmtFloat(r.ADSLDownBytes), fmtFloat(r.FTTHDownBytes), fmtFloat(r.ADSLUpBytes), fmtFloat(r.FTTHUpBytes)})
	}
	return out
}

// --- fig4 --------------------------------------------------------------------

// RatioRow is one smoothed point of the Apr-2017/Apr-2014 hourly
// download ratio.
type RatioRow struct {
	Hour      float64 `json:"hour"`
	ADSLRatio float64 `json:"adsl_ratio"`
	FTTHRatio float64 `json:"ftth_ratio"`
}

// RatioRows are fig4.
type RatioRows []RatioRow

func fig4Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (RatioRows, error) {
	points := fp.Points
	if points <= 0 {
		points = 25
	}
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	a14, a17 := splitAprils(aggs)
	adsl := analytics.HourlyRatio(a17, a14, flowrec.TechADSL, points)
	ftth := analytics.HourlyRatio(a17, a14, flowrec.TechFTTH, points)
	// A fully degraded run can lose both April windows: no curve, not
	// an index panic.
	if len(adsl) < points || len(ftth) < points {
		return nil, nil
	}
	rows := make(RatioRows, points)
	for i := range rows {
		rows[i] = RatioRow{Hour: adsl[i].X, ADSLRatio: adsl[i].Y, FTTHRatio: ftth[i].Y}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs RatioRows) CSV() [][]string {
	out := [][]string{{"hour", "adsl_ratio", "ftth_ratio"}}
	for _, r := range rs {
		out = append(out, []string{fmtFloat(r.Hour), fmtFloat(r.ADSLRatio), fmtFloat(r.FTTHRatio)})
	}
	return out
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

// Fig5Rows carries fig5's two tables, each ordered by service, then
// day.
type Fig5Rows struct {
	Popularity []SvcPopRow `json:"popularity"`
	ByteShare  []ShareRow  `json:"byte_share"`
}

func fig5Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (Fig5Rows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return Fig5Rows{}, err
	}
	svcs := fp.Services
	if len(svcs) == 0 {
		svcs = classify.FigureServices
	}
	var rows Fig5Rows
	for _, svc := range svcs {
		for _, pt := range analytics.ServiceSeries(aggs, svc) {
			rows.Popularity = append(rows.Popularity, SvcPopRow{
				Day: report.Day(pt.Day), Service: string(svc),
				ADSLPopPct: pt.PopPct[0], FTTHPopPct: pt.PopPct[1],
			})
		}
	}
	for _, svc := range svcs {
		for _, pt := range analytics.ServiceByteShare(aggs, svc) {
			rows.ByteShare = append(rows.ByteShare, ShareRow{Day: report.Day(pt.Day), Service: string(svc), SharePct: pt.SharePct})
		}
	}
	return rows, nil
}

// CSV implements FigureRows: both tables in one, told apart by the
// first column.
func (rs Fig5Rows) CSV() [][]string {
	out := [][]string{{"table", "day", "service", "v1", "v2"}}
	for _, r := range rs.Popularity {
		out = append(out, []string{"popularity", r.Day, r.Service, fmtFloat(r.ADSLPopPct), fmtFloat(r.FTTHPopPct)})
	}
	for _, r := range rs.ByteShare {
		out = append(out, []string{"byte_share", r.Day, r.Service, fmtFloat(r.SharePct), ""})
	}
	return out
}

// --- fig8 --------------------------------------------------------------------

// ProtoRow is one month's web-protocol byte shares.
type ProtoRow struct {
	Month    string             `json:"month"`
	SharePct map[string]float64 `json:"share_pct"`
}

// ProtoRows are fig8.
type ProtoRows []ProtoRow

func fig8Rows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (ProtoRows, error) {
	shares, err := p.ProtoSharesTier(ctx, days)
	if err != nil {
		return nil, err
	}
	protos := analytics.WebProtos()
	rows := make(ProtoRows, 0, len(shares))
	for _, s := range shares {
		r := ProtoRow{Month: report.Month(s.Month), SharePct: make(map[string]float64, len(protos))}
		for _, proto := range protos {
			r.SharePct[proto.String()] = s.SharePct[proto]
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// CSV implements FigureRows: one record per month and protocol.
func (rs ProtoRows) CSV() [][]string {
	out := [][]string{{"month", "protocol", "share_pct"}}
	for _, r := range rs {
		for _, proto := range analytics.WebProtos() {
			out = append(out, []string{r.Month, proto.String(), fmtFloat(r.SharePct[proto.String()])})
		}
	}
	return out
}

// --- fig10 -------------------------------------------------------------------

// RTTRow is one service's minimum-RTT distribution over the window.
type RTTRow struct {
	Service     string   `json:"service"`
	N           int      `json:"n"`
	QuantilesMs []QPoint `json:"quantiles_ms"`
}

// RTTRows are fig10.
type RTTRows []RTTRow

// defaultRTTServices mirrors the text figure's curve set.
var defaultRTTServices = []classify.Service{"Facebook", "Instagram", "YouTube", "Google", "WhatsApp"}

// defaultRTTQuantiles parameterise fig10 when quantiles= is absent.
var defaultRTTQuantiles = []float64{0.25, 0.5, 0.75, 0.9, 0.99}

func fig10Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (RTTRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	svcs := fp.Services
	if len(svcs) == 0 {
		svcs = defaultRTTServices
	}
	quantiles := fp.Quantiles
	if len(quantiles) == 0 {
		quantiles = defaultRTTQuantiles
	}
	rows := make(RTTRows, 0, len(svcs))
	for _, svc := range svcs {
		dist := analytics.RTTDist(aggs, svc)
		row := RTTRow{Service: string(svc), N: dist.N()}
		for _, q := range quantiles {
			row.QuantilesMs = append(row.QuantilesMs, QPoint{Q: q, V: dist.Quantile(q)})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CSV implements FigureRows: one record per quantile.
func (rs RTTRows) CSV() [][]string {
	out := [][]string{{"service", "n", "q", "rtt_ms"}}
	for _, r := range rs {
		for _, q := range r.QuantilesMs {
			out = append(out, []string{r.Service, strconv.Itoa(r.N), fmtFloat(q.Q), fmtFloat(q.V)})
		}
	}
	return out
}
