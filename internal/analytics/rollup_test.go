package analytics

import (
	"reflect"
	"testing"
	"time"
)

// genAggForDay aggregates a deterministic synthetic day (seed varies
// with the date, so days differ) anchored at day instead of testDay.
func genAggForDay(day time.Time, n int) *DayAgg {
	recs := genDayRecords(uint64(day.Unix()), n)
	shift := day.Sub(testDay)
	a := NewAggregator(day, nil)
	for i := range recs {
		r := recs[i]
		r.Start = r.Start.Add(shift)
		a.Add(&r)
	}
	return a.Result()
}

func consecutiveDays(start time.Time, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.AddDate(0, 0, i)
	}
	return out
}

func TestWindowStart(t *testing.T) {
	cases := []struct {
		g    Grain
		day  string
		want string
	}{
		{GrainWeek, "2016-05-10", "2016-05-09"}, // Tuesday → Monday
		{GrainWeek, "2016-05-09", "2016-05-09"}, // Monday fixed point
		{GrainWeek, "2016-05-15", "2016-05-09"}, // Sunday → previous Monday
		{GrainMonth, "2016-05-10", "2016-05-01"},
		{GrainYear, "2016-05-10", "2016-01-01"},
	}
	for _, c := range cases {
		day, _ := time.Parse("2006-01-02", c.day)
		if got := WindowStart(c.g, day).Format("2006-01-02"); got != c.want {
			t.Errorf("WindowStart(%s, %s) = %s want %s", c.g, c.day, got, c.want)
		}
	}
	if got := NextWindow(GrainMonth, time.Date(2016, 12, 1, 0, 0, 0, 0, time.UTC)); got.Year() != 2017 || got.Month() != 1 {
		t.Errorf("NextWindow(month, 2016-12-01) = %v", got)
	}
	if got := NextWindow(GrainWeek, time.Date(2016, 5, 9, 0, 0, 0, 0, time.UTC)); !got.Equal(time.Date(2016, 5, 16, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("NextWindow(week) = %v", got)
	}
}

// TestFromStatsEquivalence is the heart of the rollup contract: the
// *FromStats folds over DayStat rows must equal the figures.go folds
// over the day aggregates — exactly, including the float64 divisions.
func TestFromStatsEquivalence(t *testing.T) {
	// Span a month boundary so the monthly grouping is exercised.
	days := consecutiveDays(time.Date(2016, 4, 20, 0, 0, 0, 0, time.UTC), 20)
	var aggs []*DayAgg
	var rows []DayStat
	for _, d := range days {
		agg := genAggForDay(d, 800)
		aggs = append(aggs, agg)
		rows = append(rows, NewDayStat(agg))
	}

	if got, want := MonthlyFromStats(rows), MonthlySeries(aggs); !reflect.DeepEqual(got, want) {
		t.Errorf("MonthlyFromStats differs from MonthlySeries:\n got %+v\nwant %+v", got, want)
	}
	if got, want := ActiveFromStats(rows), ActiveSeries(aggs); !reflect.DeepEqual(got, want) {
		t.Errorf("ActiveFromStats differs from ActiveSeries:\n got %+v\nwant %+v", got, want)
	}
	if got, want := ProtoSharesFromStats(rows), ProtocolShares(aggs); !reflect.DeepEqual(got, want) {
		t.Errorf("ProtoSharesFromStats differs from ProtocolShares:\n got %+v\nwant %+v", got, want)
	}
}

func TestBuildRollupWindow(t *testing.T) {
	start := time.Date(2016, 5, 2, 0, 0, 0, 0, time.UTC) // a Monday
	days := consecutiveDays(start, 7)
	var aggs []*DayAgg
	for _, d := range days {
		aggs = append(aggs, genAggForDay(d, 500))
	}
	r, err := BuildRollup(GrainWeek, start, days, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stats) != 7 || len(r.SourceDays) != 7 {
		t.Fatalf("stats=%d sources=%d want 7", len(r.Stats), len(r.SourceDays))
	}
	if !r.CoversExactly(days) {
		t.Error("CoversExactly(same days) = false")
	}
	if r.CoversExactly(days[:6]) {
		t.Error("CoversExactly(shorter list) = true")
	}
	other := append(append([]time.Time(nil), days[:3]...), days[4:]...)
	if r.CoversExactly(other) {
		t.Error("CoversExactly(different grid) = true")
	}

	// One row per source day, in day order: the day's projection, so the
	// rows sum to the window's totals.
	var wantDown, wantUp, wantFlows, gotDown, gotUp, gotFlows uint64
	for i, a := range aggs {
		row := r.Stats[i]
		if row != NewDayStat(a) {
			t.Errorf("row %d = %+v, want the projection of %s", i, row, a.Day.Format("2006-01-02"))
		}
		wantDown, wantUp, wantFlows = wantDown+a.TotalDown, wantUp+a.TotalUp, wantFlows+a.Flows
		gotDown, gotUp, gotFlows = gotDown+row.TotalDown, gotUp+row.TotalUp, gotFlows+row.Flows
	}
	if gotDown != wantDown || gotUp != wantUp || gotFlows != wantFlows {
		t.Errorf("row totals: down=%d up=%d flows=%d want %d/%d/%d",
			gotDown, gotUp, gotFlows, wantDown, wantUp, wantFlows)
	}

	// A day outside the window must refuse to fold.
	if _, err := BuildRollup(GrainWeek, start, days, []*DayAgg{genAggForDay(start.AddDate(0, 0, 7), 100)}); err == nil {
		t.Error("BuildRollup accepted a day outside the window")
	}
	if _, err := BuildRollup(GrainWeek, start, days, []*DayAgg{aggs[1], aggs[0]}); err == nil {
		t.Error("BuildRollup accepted days out of order")
	}
}
