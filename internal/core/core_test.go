package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// testPipeline is small and fast.
func testPipeline() *Pipeline {
	return New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 16, FTTH: 8}, Stride: 120, Workers: 4})
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{"table1", "active", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	if len(exps) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("exps[%d] = %q, want %q", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Rows == nil || exps[i].Days == nil {
			t.Errorf("experiment %q incomplete", id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup invented an experiment")
	}
}

func TestAggregateCaching(t *testing.T) {
	p := testPipeline()
	days := MonthDays(2016, time.April)[:3]
	a1, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 3 || len(a2) != 3 {
		t.Fatalf("lengths %d, %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] { // pointer identity: served from cache
			t.Errorf("day %d not cached", i)
		}
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry is slow")
	}
	p := testPipeline()
	for _, e := range Experiments() {
		var buf bytes.Buffer
		if err := e.Run(context.Background(), p, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

// mustLookup is Lookup for an ID the test knows is registered.
func mustLookup(t testing.TB, id string) Experiment {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return e
}

func TestTable1Output(t *testing.T) {
	p := testPipeline()
	var buf bytes.Buffer
	if err := mustLookup(t, "table1").Run(context.Background(), p, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"facebook.com", "Netflix", "fbstatic-a.akamaihd.net"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestGenerateStoreAndReadBack(t *testing.T) {
	p := testPipeline()
	store, err := flowrec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	days := []time.Time{
		time.Date(2016, 4, 4, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 4, 5, 0, 0, 0, 0, time.UTC),
	}
	n, err := p.GenerateStore(context.Background(), NewDiskStorage(store, ""), days)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records generated")
	}
	// A store-backed pipeline must reproduce the same aggregate as the
	// generating pipeline (bit-identical dataset on disk).
	ps := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 16, FTTH: 8}, Store: store, Workers: 2})
	fromStore, err := ps.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromStore) != len(direct) {
		t.Fatalf("aggs %d vs %d", len(fromStore), len(direct))
	}
	for i := range direct {
		if fromStore[i].Flows != direct[i].Flows ||
			fromStore[i].TotalDown != direct[i].TotalDown ||
			fromStore[i].TotalUp != direct[i].TotalUp {
			t.Errorf("day %d: store (%d,%d,%d) vs direct (%d,%d,%d)",
				i, fromStore[i].Flows, fromStore[i].TotalDown, fromStore[i].TotalUp,
				direct[i].Flows, direct[i].TotalDown, direct[i].TotalUp)
		}
	}
	// Store gaps behave like probe outages.
	missing := append(days, time.Date(2016, 4, 20, 0, 0, 0, 0, time.UTC))
	withGap, err := ps.Aggregate(context.Background(), missing)
	if err != nil {
		t.Fatal(err)
	}
	if len(withGap) != 2 {
		t.Errorf("gap day not skipped: %d aggs", len(withGap))
	}
}

func TestFig4RowsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two full months of aggregation")
	}
	p := testPipeline()
	rows, err := fig4Rows(context.Background(), p, FigureParams{Points: 30}, aprilDays(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("points = %d", len(rows))
	}
	// The ADSL growth ratio should be clearly above 1 on average.
	var sum float64
	for _, r := range rows {
		sum += r.ADSLRatio
	}
	if mean := sum / float64(len(rows)); mean < 1.3 {
		t.Errorf("mean hourly ratio = %v, want growth", mean)
	}
}

// TestEmptyStoreNotes: over a lake holding none of their days, the
// active and fig4 figures print a no-data note, never a NaN.
func TestEmptyStoreNotes(t *testing.T) {
	store, err := flowrec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 99, Store: store, Workers: 2})
	for _, id := range []string{"active", "fig4"} {
		var buf bytes.Buffer
		if err := mustLookup(t, id).Run(context.Background(), p, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out := buf.String(); strings.Contains(out, "NaN") || !strings.Contains(out, "(no data") {
			t.Errorf("%s over an empty store:\n%s", id, out)
		}
	}
}

func TestRangeDays(t *testing.T) {
	days := RangeDays(date(2014, 1, 1), date(2014, 1, 10), 3)
	if len(days) != 4 {
		t.Fatalf("days = %v", days)
	}
	if !days[3].Equal(date(2014, 1, 10)) {
		t.Errorf("last = %v", days[3])
	}
	if got := RangeDays(date(2014, 1, 1), date(2014, 1, 2), 0); len(got) != 2 {
		t.Errorf("stride 0 should clamp to 1: %v", got)
	}
}

func TestMonthDays(t *testing.T) {
	feb := MonthDays(2016, time.February)
	if len(feb) != 29 { // leap year
		t.Errorf("Feb 2016 has %d days", len(feb))
	}
	if MonthDays(2017, time.April)[29].Day() != 30 {
		t.Error("April end wrong")
	}
}

func TestSourceSelection(t *testing.T) {
	p := testPipeline()
	if _, ok := p.Source().(analytics.FuncSource); !ok {
		t.Errorf("storeless pipeline should use the world source")
	}
	store, err := flowrec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ps := New(Config{Store: store})
	if _, ok := ps.Source().(analytics.StoreSource); !ok {
		t.Errorf("store pipeline should read the store")
	}
}
