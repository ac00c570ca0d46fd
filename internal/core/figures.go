package core

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/report"
)

// Figure is what serving an experiment on /v1/figures/{id} adds to
// it: the served title and the parameters the endpoint takes.
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
	// Rows, when set, derives the served rows in place of the
	// experiment's: fig2 and fig10 serve quantiles pooled over the
	// window, while their text compares the two Aprils.
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

// FigureRows are one data table's typed rows. They marshal to JSON as
// they are; CSV renders them as a header record followed by the data
// records, floats at full round-trip precision.
type FigureRows interface{ CSV() [][]string }

// Table is an experiment's typed rows: its data table, and the text
// edgereport prints under the experiment's heading.
type Table interface {
	FigureRows
	// Text appends the rows' text rendering to b.
	Text(b *bytes.Buffer)
}

// EncodeCSV renders rows as the table's CSV body — the served
// ?format=csv answer and the exported file alike.
func EncodeCSV(rows FigureRows) ([]byte, error) {
	var buf bytes.Buffer
	err := csv.NewWriter(&buf).WriteAll(rows.CSV())
	return buf.Bytes(), err
}

// tableOf adapts a typed rows builder to Experiment.Rows.
func tableOf[R Table](build func(context.Context, *Pipeline, FigureParams, []time.Time) (R, error)) func(context.Context, *Pipeline, FigureParams, []time.Time) (Table, error) {
	return func(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (Table, error) {
		return build(ctx, p, fp, days)
	}
}

// flatCSV is the CSV of a flat row type: a header of the fields' json
// names, then one record per row — strings as they are, integers in
// decimal, floats at full round-trip precision.
func flatCSV[R any](rows []R) [][]string {
	t := reflect.TypeFor[R]()
	header := make([]string, t.NumField())
	for i := range header {
		header[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	out := [][]string{header}
	for _, r := range rows {
		v := reflect.ValueOf(r)
		rec := make([]string, len(header))
		for i := range rec {
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				rec[i] = f.String()
			case reflect.Int:
				rec[i] = strconv.FormatInt(f.Int(), 10)
			case reflect.Uint64:
				rec[i] = strconv.FormatUint(f.Uint(), 10)
			case reflect.Float64:
				rec[i] = fmtFloat(f.Float())
			default:
				panic("core: flatCSV: field " + t.Field(i).Name + " is not flat")
			}
		}
		out = append(out, rec)
	}
	return out
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
func (rs ActiveRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table.
func (rs ActiveRows) Text(b *bytes.Buffer) {
	if len(rs) == 0 {
		b.WriteString("(no data: the lake holds no day of April 2016)\n")
		return
	}
	var sum float64
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		sum += r.ActivePct
		rows = append(rows, []string{r.Day, fmt.Sprint(r.Active), fmt.Sprint(r.Observed), report.Pct(r.ActivePct)})
	}
	report.Table(b, []string{"day", "active", "observed", "active%"}, rows)
	fmt.Fprintf(b, "\nmean active share: %s (paper: ~80%%)\n", report.Pct(sum/float64(len(rs))))
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

func fig2Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (FigureRows, error) {
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
func (rs MonthlyRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: the monthly table, then one trend line per
// column.
func (rs MonthlyRows) Text(b *bytes.Buffer) {
	rows := make([][]string, 0, len(rs))
	series := make([][]float64, 4)
	for _, m := range rs {
		vals := []float64{m.ADSLDownBytes, m.FTTHDownBytes, m.ADSLUpBytes, m.FTTHUpBytes}
		row := []string{m.Month}
		for i, v := range vals {
			row = append(row, report.MB(v))
			series[i] = append(series[i], v/(1<<20))
		}
		rows = append(rows, row)
	}
	labels := []string{"ADSL down", "FTTH down", "ADSL up", "FTTH up"}
	report.Table(b, append([]string{"month"}, labels...), rows)
	b.WriteString("\ntrends (first ... last month):\n")
	for i, label := range labels {
		report.SparkRow(b, label, series[i], "MB")
	}
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
func (rs RatioRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table.
func (rs RatioRows) Text(b *bytes.Buffer) {
	if len(rs) == 0 {
		b.WriteString("(no data: both comparison periods are empty)\n")
		return
	}
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{fmt.Sprintf("%05.2f", r.Hour), report.F(r.ADSLRatio), report.F(r.FTTHRatio)})
	}
	report.Table(b, []string{"hour", "ADSL ratio", "FTTH ratio"}, rows)
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

// Text implements Table: yearly means per service, then the two
// heatmaps of Figure 5, one column per sampled day.
func (rs Fig5Rows) Text(b *bytes.Buffer) {
	years := []string{"2013", "2014", "2015", "2016", "2017"}
	headers := []string{"service"}
	for _, kind := range []string{"pop%", "byte%"} {
		for _, y := range years {
			headers = append(headers, kind+y)
		}
	}
	var rows [][]string
	var labels []string
	var popRows, shareRows [][]float64
	for _, svc := range classify.FigureServices {
		var days [2][]string // popularity, byte share
		var vals [2][]float64
		for _, r := range rs.Popularity {
			if r.Service == string(svc) {
				days[0], vals[0] = append(days[0], r.Day), append(vals[0], r.ADSLPopPct)
			}
		}
		for _, r := range rs.ByteShare {
			if r.Service == string(svc) {
				days[1], vals[1] = append(days[1], r.Day), append(vals[1], r.SharePct)
			}
		}
		row := []string{string(svc)}
		for k := range days {
			for _, y := range years {
				row = append(row, report.F(yearMean(days[k], vals[k], y)))
			}
		}
		rows = append(rows, row)
		labels = append(labels, string(svc))
		popRows = append(popRows, vals[0])
		shareRows = append(shareRows, vals[1])
	}
	report.Table(b, headers, rows)
	// The byte share palette caps at 10% exactly as the paper's does
	// ("the multi-color palette is set to 10% to improve the
	// visualization").
	b.WriteString("\npopularity over time (Fig 5a, palette capped at 50%):\n")
	report.Heatmap(b, labels, popRows, 50, "% of active users")
	b.WriteString("\ndownloaded byte share over time (Fig 5b):\n")
	report.Heatmap(b, labels, shareRows, 10, "% of bytes")
}

// yearMean averages the values of one year's days (0 when it has none).
func yearMean(days []string, vals []float64, year string) float64 {
	var sum, n float64
	for i, day := range days {
		if strings.HasPrefix(day, year+"-") {
			sum += vals[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
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

// Text implements Table: the monthly table, one trend line per
// protocol, and the paper's event key.
func (rs ProtoRows) Text(b *bytes.Buffer) {
	protos := analytics.WebProtos()
	headers := []string{"month"}
	for _, proto := range protos {
		headers = append(headers, proto.String())
	}
	rows := make([][]string, 0, len(rs))
	for _, s := range rs {
		row := []string{s.Month}
		for _, proto := range protos {
			row = append(row, report.F(s.SharePct[proto.String()]))
		}
		rows = append(rows, row)
	}
	report.Table(b, headers, rows)
	b.WriteString("\nshares over time:\n")
	for _, proto := range protos {
		var vals []float64
		for _, s := range rs {
			vals = append(vals, s.SharePct[proto.String()])
		}
		report.SparkRow(b, proto.String(), vals, "%")
	}
	b.WriteString("\nevents: A=2014-01 YouTube->HTTPS  B=2014-10 QUIC on  C=2015-06 SPDY visible\n" +
		"        D=2015-12 QUIC off ~1mo  E=2016-02 SPDY->HTTP/2  F=2016-11 FB-Zero\n")
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

func fig10Rows(ctx context.Context, p *Pipeline, fp FigureParams, days []time.Time) (FigureRows, error) {
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
