package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestRowsAppearInText holds every experiment's text to its rows: each
// row, formatted through the report helpers the text uses, appears on
// one line of the rendered section. Every experiment but fig2 and
// fig10 exports exactly these rows, which the test checks too; those
// two export the served rows, which pool the two Aprils (the serve
// tier holds them to the batch numbers).
func TestRowsAppearInText(t *testing.T) {
	ctx := context.Background()
	p := New(goldenConfig())
	dir := t.TempDir()
	if err := p.ExportData(ctx, dir); err != nil {
		t.Fatal(err)
	}
	for _, e := range AllExperiments() {
		rows, err := e.Rows(ctx, p, FigureParams{}, e.Days(p.Stride()))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		if err := e.Run(ctx, p, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		lines := strings.Split(buf.String(), "\n")
		cells := textCells(t, rows)
		if len(cells) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		for _, want := range cells {
			if !lineWith(lines, want) {
				t.Errorf("%s: row %q is on no line of the text", e.ID, want)
			}
		}
		if e.Figure != nil && e.Figure.Rows != nil {
			continue
		}
		want, err := EncodeCSV(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv is not the CSV of the rows its text renders", e.ID)
		}
	}
}

func lineWith(lines []string, cells []string) bool {
	for _, ln := range lines {
		ok := true
		for _, cell := range cells {
			if !strings.Contains(ln, cell) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// textCells formats each row the way its text table does.
func textCells(t *testing.T, rows Table) [][]string {
	var out [][]string
	switch rs := rows.(type) {
	case AssocRows:
		for _, r := range rs {
			out = append(out, []string{r.Domain, r.Service})
		}
	case ActiveRows:
		for _, r := range rs {
			out = append(out, []string{r.Day, fmt.Sprint(r.Active), fmt.Sprint(r.Observed), report.Pct(r.ActivePct)})
		}
	case CCDFRows:
		for _, r := range rs {
			out = append(out, []string{fmt.Sprintf("%s %d", r.Tech, r.Year), report.MB(r.MedianBytes), report.F(r.PAbove)})
		}
	case MonthlyRows:
		for _, r := range rs {
			out = append(out, []string{r.Month, report.MB(r.ADSLDownBytes), report.MB(r.FTTHDownBytes), report.MB(r.ADSLUpBytes), report.MB(r.FTTHUpBytes)})
		}
	case RatioRows:
		for _, r := range rs {
			out = append(out, []string{fmt.Sprintf("%05.2f", r.Hour), report.F(r.ADSLRatio), report.F(r.FTTHRatio)})
		}
	case Fig5Rows:
		// The text shows yearly means of the daily rows.
		type key struct{ svc, year string }
		sum, n := make(map[key]float64), make(map[key]float64)
		var order []key
		for _, r := range rs.Popularity {
			k := key{r.Service, r.Day[:4]}
			if n[k] == 0 {
				order = append(order, k)
			}
			sum[k] += r.ADSLPopPct
			n[k]++
		}
		for _, k := range order {
			out = append(out, []string{k.svc + " ", report.F(sum[k] / n[k])})
		}
	case StoryRows:
		for _, r := range rs {
			out = append(out, []string{r.HalfYear, report.F(r.ADSLPopPct), report.MB(r.ADSLBytesPerUser), report.F(r.FTTHPopPct), report.MB(r.FTTHBytesPerUser)})
		}
	case ProtoRows:
		for _, r := range rs {
			row := []string{r.Month}
			for _, v := range r.SharePct {
				row = append(row, report.F(v))
			}
			out = append(out, row)
		}
	case VolumeRows:
		for _, r := range rs {
			out = append(out, []string{r.Month, report.MB(r.BytesPerUser)})
		}
	case RTTCDFRows:
		for _, r := range rs {
			out = append(out, []string{fmt.Sprintf("%s %d", r.Service, r.Year), fmt.Sprint(r.N), report.F(r.PAtMost)})
		}
	case Fig11Rows:
		for _, r := range rs {
			out = append(out, []string{r.Period, report.F(r.Value)})
		}
	case ReachRows:
		for _, r := range rs {
			out = append(out, []string{r.Service, report.Pct(r.ADSLDailyPct), report.Pct(r.ADSLWeeklyPct), report.Pct(r.FTTHDailyPct), report.Pct(r.FTTHWeeklyPct)})
		}
	case QUICRows:
		for _, r := range rs {
			out = append(out, []string{fmt.Sprint(r.Year), fmt.Sprint(r.Flows)})
		}
	case MixRows:
		for _, r := range rs {
			out = append(out, []string{r.World, report.F(r.SharePct)})
		}
	default:
		t.Fatalf("no text cells for %T: add a case", rows)
	}
	return out
}
