package core

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/report"
	"repro/internal/simnet"
)

// Extension experiments: analyses the paper mentions but does not
// plot. They run from the same aggregates as everything else.

// extensionExperiments returns the extra registry entries.
func extensionExperiments() []Experiment {
	return []Experiment{
		{
			ID:      "weekly",
			Title:   "Section 4.3 extension: daily vs weekly service reach (Netflix gap)",
			Heading: "Daily vs weekly reach, four weeks of October 2017",
			Days: func(int) []time.Time {
				return RangeDays(date(2017, 10, 2), date(2017, 10, 29), 1)
			},
			Rows: tableOf(weeklyRows),
		},
		{
			ID:      "quicver",
			Title:   "Per-protocol drill-down: gQUIC version mix by year",
			Heading: "gQUIC version mix per year (flows)",
			Days:    spanDays,
			Rows:    tableOf(quicRows),
		},
		{
			ID:      "whatif",
			Title:   "Counterfactuals: the 2016-12 protocol mix without event D / event F",
			Heading: "Counterfactual protocol mixes, December 2016 (monthly mean, % of web bytes)",
			Days:    func(int) []time.Time { return nil }, // builds its own worlds
			Rows:    tableOf(whatIfRows),
		},
	}
}

// --- weekly ------------------------------------------------------------------

// ReachRow is one service's mean daily and weekly reach over the
// window, in % of each technology's active subscribers.
type ReachRow struct {
	Service       string  `json:"service"`
	ADSLDailyPct  float64 `json:"adsl_daily_pct"`
	ADSLWeeklyPct float64 `json:"adsl_weekly_pct"`
	FTTHDailyPct  float64 `json:"ftth_daily_pct"`
	FTTHWeeklyPct float64 `json:"ftth_weekly_pct"`
}

// ReachRows are weekly.
type ReachRows []ReachRow

func weeklyRows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (ReachRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	var rows ReachRows
	for _, svc := range []classify.Service{"Netflix", "YouTube", "WhatsApp", "SnapChat"} {
		pts := analytics.WeeklyPopularity(aggs, svc)
		var daily, weekly [2]float64
		for _, pt := range pts {
			for ti := 0; ti < 2; ti++ {
				daily[ti] += pt.DailyPct[ti]
				weekly[ti] += pt.WeeklyPct[ti]
			}
		}
		n := float64(len(pts))
		if n == 0 {
			continue
		}
		rows = append(rows, ReachRow{
			Service:      string(svc),
			ADSLDailyPct: daily[0] / n, ADSLWeeklyPct: weekly[0] / n,
			FTTHDailyPct: daily[1] / n, FTTHWeeklyPct: weekly[1] / n,
		})
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs ReachRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table.
func (rs ReachRows) Text(b *bytes.Buffer) {
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{r.Service,
			report.Pct(r.ADSLDailyPct), report.Pct(r.ADSLWeeklyPct),
			report.Pct(r.FTTHDailyPct), report.Pct(r.FTTHWeeklyPct)})
	}
	report.Table(b, []string{"service", "ADSL daily", "ADSL weekly", "FTTH daily", "FTTH weekly"}, rows)
	b.WriteString("\npaper (section 4.3): Netflix ~10% daily vs 18% (FTTH) / 12% (ADSL) weekly in 2017\n")
}

// --- quicver -----------------------------------------------------------------

// QUICRow is one year's flow count of one gQUIC version.
type QUICRow struct {
	Year    int    `json:"year"`
	Version string `json:"version"`
	Flows   uint64 `json:"flows"`
}

// QUICRows are quicver: year by year, each year listing every version
// seen in the window, by name.
type QUICRows []QUICRow

func quicRows(ctx context.Context, p *Pipeline, _ FigureParams, days []time.Time) (QUICRows, error) {
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return nil, err
	}
	years := byPeriod(aggs, func(d time.Time) time.Time { return date(d.Year(), time.January, 1) })
	flows := make([]map[string]uint64, len(years))
	versions := make(map[string]bool)
	for i, g := range years {
		flows[i] = analytics.QUICVersionShare(g)
		for v := range flows[i] {
			versions[v] = true
		}
	}
	vlist := sortedKeys(versions)
	var rows QUICRows
	for i, g := range years {
		for _, v := range vlist {
			rows = append(rows, QUICRow{Year: g[0].Day.Year(), Version: v, Flows: flows[i][v]})
		}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs QUICRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: one line per year, one column per version.
func (rs QUICRows) Text(b *bytes.Buffer) {
	years := runs(rs, func(r QUICRow) string { return strconv.Itoa(r.Year) })
	headers := []string{"year"}
	rows := make([][]string, 0, len(years))
	for i, y := range years {
		row := []string{fmt.Sprint(y[0].Year)}
		for _, r := range y {
			if i == 0 {
				headers = append(headers, r.Version)
			}
			row = append(row, fmt.Sprint(r.Flows))
		}
		rows = append(rows, row)
	}
	report.Table(b, headers, rows)
}

// --- whatif ------------------------------------------------------------------

// MixRow is one protocol's share of web bytes in one world.
type MixRow struct {
	World    string  `json:"world"`
	Protocol string  `json:"protocol"`
	SharePct float64 `json:"share_pct"`
}

// MixRows are whatif: world by world, each listing every web protocol.
type MixRows []MixRow

// whatIfRows contrasts the measured protocol mix of December 2016
// against two counterfactual worlds: one where Google never disabled
// QUIC (event D undone does not matter by then — it shows the same
// mix, a control) and one where Facebook never shipped Zero (event F
// undone: Zero's ~8%% returns to the TLS family). It quantifies, per
// episode, how much of the traffic mix one company's unilateral
// deployment moved — the section 5 argument in numbers.
func whatIfRows(ctx context.Context, p *Pipeline, _ FigureParams, _ []time.Time) (MixRows, error) {
	days := RangeDays(date(2016, 12, 1), date(2016, 12, 28), 3)
	noZero := simnet.DefaultEvents()
	noZero.FBZero = false
	noOutage := simnet.DefaultEvents()
	noOutage.QUICOutage = false

	var rows MixRows
	for _, c := range []struct {
		label string
		ev    simnet.Events
	}{
		{"as measured", simnet.DefaultEvents()},
		{"no FB-Zero (event F undone)", noZero},
		{"no QUIC outage (event D undone)", noOutage},
	} {
		world := simnet.NewWorldWithEvents(41, simnet.Scale{ADSL: 60, FTTH: 30}, c.ev)
		src := analytics.FuncSource(func(day time.Time, fn func(*flowrec.Record)) error {
			world.EmitDay(day, fn)
			return nil
		})
		aggs, err := p.runStage1(ctx, src, days)
		if err != nil {
			return nil, err
		}
		shares := analytics.ProtocolShares(aggs)
		if len(shares) != 1 {
			return nil, fmt.Errorf("core: whatif: %d months", len(shares))
		}
		for _, proto := range analytics.WebProtos() {
			rows = append(rows, MixRow{World: c.label, Protocol: proto.String(), SharePct: shares[0].SharePct[proto]})
		}
	}
	return rows, nil
}

// CSV implements FigureRows.
func (rs MixRows) CSV() [][]string { return flatCSV(rs) }

// Text implements Table: one line per world, one column per protocol.
func (rs MixRows) Text(b *bytes.Buffer) {
	worlds := runs(rs, func(r MixRow) string { return r.World })
	headers := []string{"world"}
	rows := make([][]string, 0, len(worlds))
	for i, world := range worlds {
		row := []string{world[0].World}
		for _, r := range world {
			if i == 0 {
				headers = append(headers, r.Protocol)
			}
			row = append(row, report.F(r.SharePct))
		}
		rows = append(rows, row)
	}
	report.Table(b, headers, rows)
	b.WriteString("\nreading: undoing event F folds Zero's share back into TLS/H2;\n" +
		"event D left no trace by December 2016 (the control row matches).\n")
}
