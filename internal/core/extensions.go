package core

import (
	"context"
	"fmt"
	"io"
	"sort"
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
			ID:    "weekly",
			Title: "Section 4.3 extension: daily vs weekly service reach (Netflix gap)",
			Days: func(int) []time.Time {
				return RangeDays(date(2017, 10, 2), date(2017, 10, 29), 1)
			},
			Run: runWeekly,
		},
		{
			ID:    "quicver",
			Title: "Per-protocol drill-down: gQUIC version mix by year",
			Days:  spanDays,
			Run:   runQUICVersions,
		},
		{
			ID:    "whatif",
			Title: "Counterfactuals: the 2016-12 protocol mix without event D / event F",
			Days:  func(int) []time.Time { return nil }, // builds its own worlds
			Run:   runWhatIf,
		},
	}
}

// runWhatIf contrasts the measured protocol mix of December 2016
// against two counterfactual worlds: one where Google never disabled
// QUIC (event D undone does not matter by then — it shows the same
// mix, a control) and one where Facebook never shipped Zero (event F
// undone: Zero's ~8%% returns to the TLS family). It quantifies, per
// episode, how much of the traffic mix one company's unilateral
// deployment moved — the section 5 argument in numbers.
func runWhatIf(ctx context.Context, p *Pipeline, w io.Writer) error {
	if err := report.Section(w, "Counterfactual protocol mixes, December 2016 (monthly mean, % of web bytes)"); err != nil {
		return err
	}
	days := RangeDays(date(2016, 12, 1), date(2016, 12, 28), 3)

	mix := func(ev simnet.Events) (map[flowrec.WebProto]float64, error) {
		world := simnet.NewWorldWithEvents(41, simnet.Scale{ADSL: 60, FTTH: 30}, ev)
		src := analytics.FuncSource(func(day time.Time, fn func(*flowrec.Record)) error {
			world.EmitDay(day, fn)
			return nil
		})
		aggs, err := p.runStage1(ctx, src, days, 4)
		if err != nil {
			return nil, err
		}
		shares := analytics.ProtocolShares(aggs)
		if len(shares) != 1 {
			return nil, fmt.Errorf("core: whatif: %d months", len(shares))
		}
		return shares[0].SharePct, nil
	}

	noZero := simnet.DefaultEvents()
	noZero.FBZero = false
	noOutage := simnet.DefaultEvents()
	noOutage.QUICOutage = false

	worlds := []struct {
		label string
		ev    simnet.Events
	}{
		{"as measured", simnet.DefaultEvents()},
		{"no FB-Zero (event F undone)", noZero},
		{"no QUIC outage (event D undone)", noOutage},
	}
	protos := analytics.WebProtos()
	headers := []string{"world"}
	for _, proto := range protos {
		headers = append(headers, proto.String())
	}
	var rows [][]string
	for _, c := range worlds {
		m, err := mix(c.ev)
		if err != nil {
			return err
		}
		row := []string{c.label}
		for _, proto := range protos {
			row = append(row, report.F(m[proto]))
		}
		rows = append(rows, row)
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nreading: undoing event F folds Zero's share back into TLS/H2;\n"+
		"event D left no trace by December 2016 (the control row matches).")
	return err
}

func runWeekly(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, Lookup0("weekly").Days(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "Daily vs weekly reach, four weeks of October 2017"); err != nil {
		return err
	}
	var rows [][]string
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
		rows = append(rows, []string{
			string(svc),
			report.Pct(daily[0] / n), report.Pct(weekly[0] / n),
			report.Pct(daily[1] / n), report.Pct(weekly[1] / n),
		})
	}
	if err := report.Table(w, []string{"service", "ADSL daily", "ADSL weekly", "FTTH daily", "FTTH weekly"}, rows); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\npaper (section 4.3): Netflix ~10% daily vs 18% (FTTH) / 12% (ADSL) weekly in 2017")
	return err
}

func runQUICVersions(ctx context.Context, p *Pipeline, w io.Writer) error {
	aggs, err := p.Aggregate(ctx, spanDays(p.Stride()))
	if err != nil {
		return err
	}
	if err := report.Section(w, "gQUIC version mix per year (flows)"); err != nil {
		return err
	}
	byYear := make(map[int]map[string]uint64)
	for _, agg := range aggs {
		y := agg.Day.Year()
		m := byYear[y]
		if m == nil {
			m = make(map[string]uint64)
			byYear[y] = m
		}
		for v, n := range analytics.QUICVersionShare([]*analytics.DayAgg{agg}) {
			m[v] += n
		}
	}
	versions := map[string]bool{}
	var years []int
	for y, m := range byYear {
		years = append(years, y)
		for v := range m {
			versions[v] = true
		}
	}
	sort.Ints(years)
	var vlist []string
	for v := range versions {
		vlist = append(vlist, v)
	}
	sort.Strings(vlist)
	headers := append([]string{"year"}, vlist...)
	var rows [][]string
	for _, y := range years {
		row := []string{fmt.Sprint(y)}
		for _, v := range vlist {
			row = append(row, fmt.Sprint(byYear[y][v]))
		}
		rows = append(rows, row)
	}
	return report.Table(w, headers, rows)
}
