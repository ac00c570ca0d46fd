package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/simnet"
)

// loadCounter counts the derived-state loads and record reads that
// reach the storage it wraps, per day (rollups per window start).
type loadCounter struct {
	core.Storage
	mu    sync.Mutex
	loads map[string]int
}

func (c *loadCounter) count(kind string, day time.Time) {
	c.mu.Lock()
	c.loads[kind+" "+day.Format("2006-01-02")]++
	c.mu.Unlock()
}

func (c *loadCounter) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	c.count("LoadAgg", day)
	return c.Storage.LoadAgg(day)
}

func (c *loadCounter) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	c.count("LoadPartials", day)
	return c.Storage.LoadPartials(day)
}

func (c *loadCounter) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	c.count("LoadRollup", start)
	return c.Storage.LoadRollup(g, start)
}

func (c *loadCounter) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	c.count("ReadDayCols", day)
	return c.Storage.ReadDayCols(day, sc, fn)
}

// TestCheckpointSparesUnreadDays: a live ingester — a storage of its
// own over the shared directories, as edged beside edgeserve — that
// checkpoints the hot day costs a long-lived server only what read
// that day. Afterwards every URL over sealed days alone answers from
// the response cache with its old ETag, no sealed day's aggregate,
// partials, rollup window or records are loaded again, and every URL
// that reads the hot day recomputes to what a fresh server answers.
func TestCheckpointSparesUnreadDays(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	lakeDir := filepath.Join(dir, "lake")
	aggDir, rollupDir := filepath.Join(lakeDir, ".agg"), filepath.Join(dir, "rollups")
	store, err := flowrec.OpenStoreFormat(lakeDir, flowrec.FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	week := analytics.WindowStart(analytics.GrainWeek, simnet.SpanStart.AddDate(0, 0, 14))
	sealed := core.RangeDays(week, week.AddDate(0, 0, 6), 1)
	hot := week.AddDate(0, 0, 7)
	scale := simnet.Scale{ADSL: 8, FTTH: 4}
	cfg := core.Config{Seed: 7, Scale: scale, Workers: 2, Store: store, AggCacheDir: aggDir, RollupDir: rollupDir}
	if _, err := core.New(cfg).GenerateStore(ctx, core.NewDiskStorage(store, aggDir), sealed); err != nil {
		t.Fatal(err)
	}

	in, err := ingest.Open(ingest.Config{
		Storage:         core.NewDiskStorage(store, aggDir),
		WALDir:          filepath.Join(lakeDir, flowrec.WALDirName),
		CheckpointEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close(ctx)
	src := simnet.NewWorld(7, scale).Stream([]time.Time{hot})
	feed := func(n int) {
		t.Helper()
		var sr simnet.StreamRecord
		for i := 0; i < n && src.Next(&sr); i++ {
			if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
				t.Fatal(err)
			}
		}
		in.CheckpointAll(ctx)
	}
	feed(300)

	counter := &loadCounter{Storage: core.NewDiskStorage(store, aggDir).WithRollupDir(rollupDir), loads: map[string]int{}}
	srvCfg := cfg
	srvCfg.Store, srvCfg.Storage = nil, counter
	_, ts := newEquivServer(t, srvCfg, Options{})

	f := func(d time.Time) string { return d.Format("2006-01-02") }
	span := fmt.Sprintf("from=%s&to=%s", f(sealed[0]), f(sealed[6]))
	toHot := fmt.Sprintf("from=%s&to=%s", f(sealed[0]), f(hot))
	sealedURLs := []string{
		"/v1/figures/fig3?" + span, "/v1/figures/active?" + span, "/v1/figures/fig8?" + span + "&format=csv",
		"/v1/figures/fig2?" + span, "/v1/figures/fig10?" + span + "&service=YouTube",
		"/v1/figures/fig5?from=" + f(sealed[2]),
		"/v1/scan?from=" + f(sealed[0]) + "&tech=adsl",
		"/v1/scan?from=" + f(sealed[1]) + "&to=" + f(sealed[2]) + "&format=csv&limit=50",
	}
	hotURLs := []string{
		"/v1/figures/fig3?" + toHot, "/v1/figures/active?from=" + f(sealed[6]) + "&to=" + f(hot),
		"/v1/figures/fig2?from=" + f(hot), "/v1/figures/fig10?" + toHot,
	}

	type answer struct {
		etag string
		body []byte
	}
	before := map[string]answer{}
	for _, u := range append(append([]string(nil), sealedURLs...), hotURLs...) {
		resp, body := doReq(t, http.MethodGet, ts.URL+u, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, body)
		}
		before[u] = answer{resp.Header.Get("ETag"), body}
	}

	feed(300) // the checkpoint under test
	counter.mu.Lock()
	clear(counter.loads)
	counter.mu.Unlock()

	for _, u := range sealedURLs {
		resp, body := doReq(t, http.MethodGet, ts.URL+u, nil)
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: X-Cache %q after a hot-day checkpoint, want hit", u, got)
		}
		if got := resp.Header.Get("ETag"); got != before[u].etag {
			t.Errorf("%s: ETag moved from %s to %s, yet it reads no hot day", u, before[u].etag, got)
		}
		if !bytes.Equal(body, before[u].body) {
			t.Errorf("%s: body changed, yet it reads no hot day", u)
		}
	}
	fresh := New(core.New(cfg), Options{}).Handler()
	for _, u := range hotURLs {
		resp, body := doReq(t, http.MethodGet, ts.URL+u, nil)
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s: X-Cache %q after a checkpoint of a day it reads, want miss", u, got)
		}
		rec := httptest.NewRecorder()
		fresh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(body, rec.Body.Bytes()) {
			t.Errorf("%s: served answer diverges from a fresh server's (status %d)\nserved: %s\nfresh:  %s",
				u, rec.Code, body, rec.Body.Bytes())
		}
	}

	counter.mu.Lock()
	defer counter.mu.Unlock()
	for key, n := range counter.loads {
		if !strings.HasSuffix(key, f(hot)) {
			t.Errorf("%s: %d calls after a checkpoint of %s only", key, n, f(hot))
		}
	}
}
