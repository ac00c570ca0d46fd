package serve

// The serve-equivalence tier: every /v1/figures/{name} response must
// derive from the same numbers as the edgereport batch figure on the
// same (simulated) lake. Three angles hold that:
//
//  1. a golden corpus of HTTP bodies under testdata/golden, compared
//     byte-for-byte (regenerate with `make servequiv-update`);
//  2. exact numeric equality between a rollup-enabled served pipeline
//     and an independent flat batch pipeline — the served numbers ride
//     PR 7's rollup-equals-day-fold guarantee through HTTP;
//  3. served values, re-formatted exactly the way the batch table
//     formats them, must appear in the batch figure's rendered text.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/report"
	"repro/internal/simnet"
)

var updateServequiv = flag.Bool("update-servequiv", false, "rewrite testdata/golden from current responses")

// servequivConfig pins the corpus the same way core's golden tier
// does: one seed, a tiny population, sparse stride.
func servequivConfig() core.Config {
	return core.Config{
		Seed: 424242, Scale: simnet.Scale{ADSL: 8, FTTH: 4},
		Stride: 240, Workers: 2,
	}
}

// newEquivServer boots an httptest server over a fresh pipeline.
func newEquivServer(t *testing.T, cfg core.Config, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(core.New(cfg), opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func getRows(t *testing.T, url string, rows any) {
	t.Helper()
	status, body := fetch(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, status, body)
	}
	var envelope struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if err := json.Unmarshal(envelope.Rows, rows); err != nil {
		t.Fatalf("GET %s: rows: %v", url, err)
	}
}

// TestServeEquivalenceGolden compares every endpoint's body to the
// golden corpus byte-for-byte. The corpus is generated through the
// same HTTP path it is checked through, so the JSON layout, number
// formatting and row order are all pinned.
func TestServeEquivalenceGolden(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	dir := filepath.Join("testdata", "golden")
	cases := []struct {
		name, path, file string
	}{
		{"experiments", "/v1/experiments", "experiments.json"},
		{"active", "/v1/figures/active", "active.json"},
		{"fig2", "/v1/figures/fig2", "fig2.json"},
		{"fig3", "/v1/figures/fig3", "fig3.json"},
		{"fig3-csv", "/v1/figures/fig3?format=csv", "fig3.csv"},
		{"fig4", "/v1/figures/fig4", "fig4.json"},
		{"fig5", "/v1/figures/fig5", "fig5.json"},
		{"fig8", "/v1/figures/fig8", "fig8.json"},
		{"fig10", "/v1/figures/fig10", "fig10.json"},
		{"fig10-quantiles", "/v1/figures/fig10?quantiles=0.5,0.9&service=YouTube", "fig10_params.json"},
	}
	if *updateServequiv {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := fetch(t, ts.URL+c.path)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			path := filepath.Join(dir, c.file)
			if *updateServequiv {
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `make servequiv-update`): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s diverges from %s (regenerate with `make servequiv-update` if intentional)\ngot:\n%s", c.path, path, body)
			}
		})
	}
}

// TestServedFiguresMatchBatchNumbers holds the served numbers exactly
// equal to an independent batch derivation. The served pipeline runs
// with the agg cache and rollup tier enabled — the full
// production read path — while the batch pipeline folds days flat in
// memory. Equality here means tier selection changed nothing on the
// way to the wire.
func TestServedFiguresMatchBatchNumbers(t *testing.T) {
	ctx := context.Background()
	cfg := servequivConfig()
	cfg.AggCacheDir = filepath.Join(t.TempDir(), "agg")
	cfg.RollupDir = filepath.Join(t.TempDir(), "rollup")
	_, ts := newEquivServer(t, cfg, Options{})
	batch := core.New(servequivConfig())

	t.Run("active", func(t *testing.T) {
		var rows []core.ActiveRow
		getRows(t, ts.URL+"/v1/figures/active", &rows)
		days := mustLookup(t, "active").Days(batch.Stride())
		pts, err := batch.ActiveSeriesTier(ctx, days)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(pts) || len(rows) == 0 {
			t.Fatalf("served %d rows, batch derived %d", len(rows), len(pts))
		}
		for i, pt := range pts {
			got := rows[i]
			if got.Day != pt.Day.Format("2006-01-02") || got.Active != pt.Active ||
				got.Observed != pt.Observed || got.ActivePct != pt.ActivePct {
				t.Errorf("row %d: served %+v, batch %+v", i, got, pt)
			}
		}
	})

	t.Run("fig3", func(t *testing.T) {
		var rows []core.MonthlyRow
		getRows(t, ts.URL+"/v1/figures/fig3", &rows)
		days := mustLookup(t, "fig3").Days(batch.Stride())
		ms, err := batch.MonthlySeriesTier(ctx, days)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(ms) || len(rows) == 0 {
			t.Fatalf("served %d rows, batch derived %d", len(rows), len(ms))
		}
		for i, m := range ms {
			got := rows[i]
			if got.Month != m.Month.Format("2006-01") ||
				got.ADSLDownBytes != m.Mean[0][analytics.Down] ||
				got.FTTHDownBytes != m.Mean[1][analytics.Down] ||
				got.ADSLUpBytes != m.Mean[0][analytics.Up] ||
				got.FTTHUpBytes != m.Mean[1][analytics.Up] {
				t.Errorf("row %d: served %+v, batch %+v", i, got, m)
			}
		}
	})

	t.Run("fig8", func(t *testing.T) {
		var rows []core.ProtoRow
		getRows(t, ts.URL+"/v1/figures/fig8", &rows)
		days := mustLookup(t, "fig8").Days(batch.Stride())
		shares, err := batch.ProtoSharesTier(ctx, days)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(shares) || len(rows) == 0 {
			t.Fatalf("served %d rows, batch derived %d", len(rows), len(shares))
		}
		for i, s := range shares {
			got := rows[i]
			if got.Month != s.Month.Format("2006-01") {
				t.Fatalf("row %d: served month %s, batch %s", i, got.Month, s.Month.Format("2006-01"))
			}
			for _, proto := range analytics.WebProtos() {
				if got.SharePct[proto.String()] != s.SharePct[proto] {
					t.Errorf("row %d %s: served %v, batch %v",
						i, proto, got.SharePct[proto.String()], s.SharePct[proto])
				}
			}
		}
	})

	t.Run("fig2", func(t *testing.T) {
		var rows []core.DistRow
		getRows(t, ts.URL+"/v1/figures/fig2", &rows)
		days := mustLookup(t, "fig2").Days(batch.Stride())
		aggs, err := batch.Aggregate(ctx, days)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("served %d rows, want 4 (tech x dir)", len(rows))
		}
		dist := analytics.DailyVolumeDist(aggs, flowrec.TechADSL, analytics.Down) // ADSL down = first row
		if rows[0].N != dist.N() || rows[0].MeanBytes != dist.Mean() {
			t.Errorf("ADSL down: served n=%d mean=%v, batch n=%d mean=%v",
				rows[0].N, rows[0].MeanBytes, dist.N(), dist.Mean())
		}
		for _, qp := range rows[0].Quantiles {
			if want := dist.Quantile(qp.Q); qp.V != want {
				t.Errorf("ADSL down q%v: served %v, batch %v", qp.Q, qp.V, want)
			}
		}
	})
}

// mustLookup is core.Lookup for an ID the test knows is registered.
func mustLookup(t testing.TB, id string) core.Experiment {
	t.Helper()
	e, ok := core.Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return e
}

// TestServedFiguresAppearInBatchText ties the service to the rendered
// batch figure itself: each served row, formatted through the same
// report helpers the batch table uses, must appear on a line of the
// edgereport output.
func TestServedFiguresAppearInBatchText(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	batch := core.New(servequivConfig())
	render := func(id string) []string {
		var buf bytes.Buffer
		if err := mustLookup(t, id).Run(context.Background(), batch, &buf); err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		return strings.Split(buf.String(), "\n")
	}
	lineWith := func(lines []string, cells ...string) bool {
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

	t.Run("active", func(t *testing.T) {
		var rows []core.ActiveRow
		getRows(t, ts.URL+"/v1/figures/active", &rows)
		lines := render("active")
		if len(rows) == 0 {
			t.Fatal("no served rows")
		}
		for _, r := range rows {
			if !lineWith(lines, r.Day, fmt.Sprint(r.Active), fmt.Sprint(r.Observed), report.Pct(r.ActivePct)) {
				t.Errorf("served active row %s (%d/%d, %s) not in batch figure text",
					r.Day, r.Active, r.Observed, report.Pct(r.ActivePct))
			}
		}
	})

	t.Run("fig3", func(t *testing.T) {
		var rows []core.MonthlyRow
		getRows(t, ts.URL+"/v1/figures/fig3", &rows)
		lines := render("fig3")
		if len(rows) == 0 {
			t.Fatal("no served rows")
		}
		for _, r := range rows {
			if !lineWith(lines, r.Month, report.MB(r.ADSLDownBytes), report.MB(r.FTTHDownBytes),
				report.MB(r.ADSLUpBytes), report.MB(r.FTTHUpBytes)) {
				t.Errorf("served fig3 row %s (%s/%s/%s/%s MB) not in batch figure text",
					r.Month, report.MB(r.ADSLDownBytes), report.MB(r.FTTHDownBytes),
					report.MB(r.ADSLUpBytes), report.MB(r.FTTHUpBytes))
			}
		}
	})
}

// TestServedFiguresEqualExport holds edgereport -export to the served
// CSV: every served figure's exported file equals its ?format=csv body
// byte for byte, and the export holds one file per experiment.
func TestServedFiguresEqualExport(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	dir := t.TempDir()
	if err := core.New(servequivConfig()).ExportData(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps := core.AllExperiments()
	for _, e := range exps {
		if e.Figure == nil {
			continue
		}
		status, body := fetch(t, ts.URL+"/v1/figures/"+e.ID+"?format=csv")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", e.ID, status, body)
		}
		file, err := os.ReadFile(filepath.Join(dir, e.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, body) {
			t.Errorf("%s.csv diverges from the served CSV\nexport:\n%s\nserved:\n%s", e.ID, file, body)
		}
	}
	if len(entries) != len(exps) {
		t.Errorf("export wrote %d files for %d experiments", len(entries), len(exps))
	}
}

// TestServedFiguresEnvelopeStride: the envelope reports the step its
// window was built at — 1 for the daily default windows, whatever the
// pipeline stride, and the pipeline stride for the span figures.
func TestServedFiguresEnvelopeStride(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	for path, want := range map[string]int{
		"active":                              1,
		"fig2":                                1,
		"fig4":                                1,
		"fig10":                               1,
		"fig10?quantiles=0.5&service=YouTube": 1,
		"fig3":                                servequivConfig().Stride,
		"fig3?from=2016-01-01&to=2016-03-31&stride=7": 7,
	} {
		status, body := fetch(t, ts.URL+"/v1/figures/"+path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
		var resp FigureResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.Stride != want {
			t.Errorf("%s: stride %d, want %d", path, resp.Stride, want)
		}
	}
}
