package serve

// The cache-equivalence tier (make cacheequiv): the response cache
// must never change an answer, only its cost. Hits are byte-identical
// to their first computation, every lake mutation path — WriteDay,
// live-ingest checkpoints and seals, admin compaction — moves the
// generation and yields answers equal to a fresh batch pipeline's,
// ETag/If-None-Match revalidation round-trips, and a mid-stream
// damaged day terminates a streamed CSV with the error trailer. Plus
// the serve-contract regressions: the deadline covers queue wait,
// /v1/metrics rejects unknown formats, and healthz stops listing the
// lake per probe. (That a failed day contributes nothing to scan
// tallies is the scan-equivalence tier's, cmd/edgequery's tests.)

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/simnet"
)

// doReq issues one request with optional headers and drains the body,
// so trailers are populated on return.
func doReq(t *testing.T, method, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp, body
}

// buildLake generates a small real lake (one record stream per day)
// in the given format and returns the store plus its days.
func buildLake(t *testing.T, nDays int, format flowrec.Format) (*flowrec.Store, []time.Time) {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(filepath.Join(t.TempDir(), "lake"), format)
	if err != nil {
		t.Fatal(err)
	}
	days := make([]time.Time, nDays)
	for i := range days {
		days[i] = simnet.SpanStart.AddDate(0, 0, i)
	}
	gen := core.New(servequivConfig())
	if _, err := gen.GenerateStore(context.Background(), core.NewDiskStorage(store, ""), days); err != nil {
		t.Fatal(err)
	}
	return store, days
}

// lakeConfig is the serving config over a generated lake.
func lakeConfig(store *flowrec.Store) core.Config {
	cfg := servequivConfig()
	cfg.Store = store
	return cfg
}

// memLake is an in-memory core.Storage whose days can be damaged at a
// chosen record: reads deliver failAfter records, then fail like a
// torn gzip (wrapping flowrec.ErrCorrupt). daysCalls counts Days()
// listings for the healthz caching test.
type memLake struct {
	recs      map[int64][]flowrec.Record
	failAfter map[int64]int
	gen       atomic.Uint64
	daysCalls atomic.Int64
}

func newMemLake() *memLake {
	return &memLake{recs: make(map[int64][]flowrec.Record), failAfter: make(map[int64]int)}
}

func (m *memLake) addDay(day time.Time, n int, bytesDown, bytesUp uint64) {
	var recs []flowrec.Record
	for i := 0; i < n; i++ {
		recs = append(recs, flowrec.Record{
			Start: day.Add(time.Duration(i) * time.Minute),
			Proto: flowrec.ProtoTCP, Tech: flowrec.TechADSL,
			SubID: uint32(i), BytesDown: bytesDown, BytesUp: bytesUp,
		})
	}
	m.recs[day.Unix()] = recs
}

func (m *memLake) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	recs, ok := m.recs[day.Unix()]
	if !ok {
		return fmt.Errorf("%w: %s", flowrec.ErrNoDay, day.Format("2006-01-02"))
	}
	limit, damaged := m.failAfter[day.Unix()]
	for i := range recs {
		if damaged && i >= limit {
			return fmt.Errorf("%w: injected mid-day damage", flowrec.ErrCorrupt)
		}
		if err := fn(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (m *memLake) WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	var recs []flowrec.Record
	err := emit(func(r *flowrec.Record) error { recs = append(recs, *r); return nil })
	if err != nil {
		return uint64(len(recs)), err
	}
	m.recs[day.Unix()] = recs
	m.BumpDays(day)
	return uint64(len(recs)), nil
}

func (m *memLake) HasDay(day time.Time) bool { _, ok := m.recs[day.Unix()]; return ok }

func (m *memLake) Days() ([]time.Time, error) {
	m.daysCalls.Add(1)
	var out []time.Time
	for u := range m.recs {
		out = append(out, time.Unix(u, 0).UTC())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out, nil
}

func (m *memLake) QuarantineDay(day time.Time) error {
	delete(m.recs, day.Unix())
	m.BumpDays(day)
	return nil
}

func (m *memLake) LoadAgg(time.Time) (*analytics.DayAgg, error)         { return nil, nil }
func (m *memLake) SaveAgg(*analytics.DayAgg) error                      { return nil }
func (m *memLake) LoadPartials(time.Time) ([]*analytics.Partial, error) { return nil, nil }
func (m *memLake) SavePartials(time.Time, []*analytics.Partial) error   { return nil }
func (m *memLake) AppendPartial(time.Time, *analytics.Partial) error    { return nil }
func (m *memLake) PartialsSize(time.Time) (int64, int64)                { return 0, 0 }
func (m *memLake) SweepTemps(time.Time) error                           { return nil }
func (m *memLake) LoadRollup(analytics.Grain, time.Time) (*analytics.Rollup, error) {
	return nil, nil
}
func (m *memLake) SaveRollup(*analytics.Rollup) error { return nil }
func (m *memLake) InvalidateRollups(time.Time) error  { return nil }
func (m *memLake) Generation() uint64                 { return m.gen.Load() }
func (m *memLake) BumpDays(...time.Time) uint64       { return m.gen.Add(1) }
func (m *memLake) DayStamp(time.Time) uint64          { return m.gen.Load() }

// --- satellite regressions --------------------------------------------------

// TestDeadlineIncludesQueueWait: QueryTimeout is documented as the
// bound on what a client observes, admission wait included. A request
// queued behind a slow slot-holder past the deadline must answer 504
// promptly — not run (and answer 200) whenever the queue drains.
func TestDeadlineIncludesQueueWait(t *testing.T) {
	fake := &fakeStorage{day: fakeDay, entered: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newEquivServer(t, core.Config{Storage: fake, Workers: 1},
		Options{Workers: 1, Queue: 4, QueryTimeout: 250 * time.Millisecond})
	url := ts.URL + "/v1/scan?from=2016-04-01"
	timeouts0 := mTimeouts.Load()

	aCh := make(chan int, 1)
	go func() {
		status, _, _ := httpStatus(&http.Client{}, url)
		aCh <- status
	}()
	<-fake.entered // A holds the only worker slot, blocked on release

	t0 := time.Now()
	status, body, err := httpStatus(&http.Client{}, url)
	waited := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued request answered %d, want 504: %s", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body does not mention the deadline: %s", body)
	}
	// The 504 must arrive around the deadline, not whenever the
	// holder finishes (it is still blocked right now).
	if waited > 5*time.Second {
		t.Errorf("queued 504 took %v, deadline was 250ms", waited)
	}
	if got := mTimeouts.Load(); got != timeouts0+1 {
		t.Errorf("serve.deadline_expired = %d, want %d", got, timeouts0+1)
	}
	close(fake.release)
	<-aCh
}

// TestMetricsFormatStrict: /v1/metrics now enforces the same strict
// unknown-value contract as every admitted endpoint.
func TestMetricsFormatStrict(t *testing.T) {
	fake := &fakeStorage{day: fakeDay}
	_, ts := newEquivServer(t, core.Config{Storage: fake, Workers: 1}, Options{})
	for _, c := range []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?format=json", http.StatusOK},
		{"?format=text", http.StatusOK},
		{"?format=xml", http.StatusBadRequest},
		{"?format=TEXT", http.StatusBadRequest},
	} {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/metrics"+c.query, nil)
		if resp.StatusCode != c.want {
			t.Errorf("GET /v1/metrics%s: status %d, want %d: %s", c.query, resp.StatusCode, c.want, body)
		}
	}
}

// TestHealthzCachedDayCount: the health probe must not list the lake
// directory per probe — one listing per lake generation.
func TestHealthzCachedDayCount(t *testing.T) {
	lake := newMemLake()
	lake.addDay(fakeDay, 3, 100, 10)
	_, ts := newEquivServer(t, core.Config{Storage: lake, Workers: 1}, Options{})

	var h Health
	for i := 0; i < 3; i++ {
		_, body := doReq(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if h.LakeDays != 1 {
			t.Fatalf("LakeDays = %d, want 1", h.LakeDays)
		}
	}
	if got := lake.daysCalls.Load(); got != 1 {
		t.Errorf("3 probes did %d lake listings, want 1", got)
	}

	lake.addDay(fakeDay.AddDate(0, 0, 1), 3, 100, 10)
	lake.BumpDays(fakeDay.AddDate(0, 0, 1)) // as a real WriteDay would
	_, body := doReq(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.LakeDays != 2 {
		t.Errorf("LakeDays after mutation = %d, want 2", h.LakeDays)
	}
	if got := lake.daysCalls.Load(); got != 2 {
		t.Errorf("lake listings after mutation = %d, want 2 (one per generation)", got)
	}
	if h.Generation != lake.Generation() {
		t.Errorf("healthz generation = %d, lake = %d", h.Generation, lake.Generation())
	}
}

// --- the response cache -----------------------------------------------------

// TestResponseCacheByteIdentical: concurrent identical queries answer
// byte-for-byte identically, and a repeat is served from the cache.
func TestResponseCacheByteIdentical(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	url := ts.URL + "/v1/figures/fig3"

	first, body1 := doReq(t, http.MethodGet, url, nil)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, body1)
	}
	if first.Header.Get("X-Cache") != "miss" {
		t.Errorf("first answer X-Cache = %q, want miss", first.Header.Get("X-Cache"))
	}
	if first.Header.Get("ETag") == "" {
		t.Error("no ETag on a figure response")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := httpStatus(&http.Client{}, url)
			if err != nil || status != http.StatusOK {
				errs <- fmt.Sprintf("status %d err %v", status, err)
				return
			}
			if !bytes.Equal(body, body1) {
				errs <- "concurrent answer differs from first"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	repeat, body2 := doReq(t, http.MethodGet, url, nil)
	if repeat.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", repeat.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body2, body1) {
		t.Error("cached answer differs from first computation")
	}
	if repeat.Header.Get("ETag") != first.Header.Get("ETag") {
		t.Error("ETag changed without a lake mutation")
	}
}

// TestETagRoundTrip: 200 with an ETag → 304 on If-None-Match → lake
// mutation → 200 again with a new ETag. The revalidation must also be
// admission-free (it is served from cache).
func TestETagRoundTrip(t *testing.T) {
	store, days := buildLake(t, 1, flowrec.FormatV1)
	srv, ts := newEquivServer(t, lakeConfig(store), Options{})
	day := days[0].Format("2006-01-02")
	url := fmt.Sprintf("%s/v1/scan?from=%s&to=%s", ts.URL, day, day)

	first, body1 := doReq(t, http.MethodGet, url, nil)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, body1)
	}
	etag1 := first.Header.Get("ETag")
	if etag1 == "" {
		t.Fatal("no ETag on scan response")
	}

	cond, condBody := doReq(t, http.MethodGet, url, map[string]string{"If-None-Match": etag1})
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match with current tag: status %d, want 304", cond.StatusCode)
	}
	if len(condBody) != 0 {
		t.Errorf("304 carried a %d-byte body", len(condBody))
	}

	// Rewrite the day: the generation moves, so the held tag is stale.
	gen0 := srv.Pipeline().Generation()
	_, err := srv.Pipeline().Storage().WriteDay(days[0], func(write func(*flowrec.Record) error) error {
		return write(&flowrec.Record{
			Start: days[0].Add(time.Hour), Proto: flowrec.ProtoTCP,
			Tech: flowrec.TechADSL, SubID: 1, BytesDown: 42, BytesUp: 7,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Pipeline().Generation(); got <= gen0 {
		t.Fatalf("generation after WriteDay = %d, want > %d", got, gen0)
	}

	after, body3 := doReq(t, http.MethodGet, url, map[string]string{"If-None-Match": etag1})
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation conditional GET: status %d, want 200 (data changed)", after.StatusCode)
	}
	if after.Header.Get("ETag") == etag1 {
		t.Error("ETag unchanged across a lake mutation")
	}
	if bytes.Equal(body3, body1) {
		t.Error("scan body unchanged after the day was rewritten to one record")
	}
	var resp ScanResponse
	if err := json.Unmarshal(body3, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scanned != 1 {
		t.Errorf("post-rewrite scan sees %d records, want 1", resp.Scanned)
	}
}

// TestResponseCacheInvalidationOnIngest: a live ingester sharing the
// server's storage checkpoints and seals a hot day; every generation
// step must yield served answers equal to a *fresh* batch pipeline
// over the same lake — no stale figure, ever.
func TestResponseCacheInvalidationOnIngest(t *testing.T) {
	day := simnet.SpanStart.AddDate(0, 0, 7)
	dir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	aggDir := filepath.Join(dir, "agg")
	ds := core.NewDiskStorage(store, aggDir)
	in, err := ingest.Open(ingest.Config{
		Storage:         ds,
		WALDir:          filepath.Join(dir, "lake", flowrec.WALDirName),
		CheckpointEvery: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := simnet.NewWorld(7, simnet.Scale{ADSL: 8, FTTH: 4})
	src := w.Stream([]time.Time{day})
	ctx := context.Background()

	var sr simnet.StreamRecord
	streamN := func(n int) bool {
		for i := 0; i < n; i++ {
			if !src.Next(&sr) {
				return false
			}
			if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}
	streamN(256)
	in.CheckpointAll(ctx)

	pcfg := core.Config{Seed: 7, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 2,
		Storage: ds, AggCacheDir: aggDir}
	srv, ts := newEquivServer(t, pcfg, Options{})
	path := fmt.Sprintf("/v1/figures/active?from=%s&to=%s",
		day.Format("2006-01-02"), day.Format("2006-01-02"))

	// freshBody computes the same figure on a brand-new batch pipeline
	// over the same lake — the ground truth a cached server must match.
	freshBody := func() []byte {
		fresh := New(core.New(core.Config{Seed: 7, Scale: simnet.Scale{ADSL: 8, FTTH: 4},
			Workers: 2, Store: store, AggCacheDir: aggDir}), Options{})
		rec := httptest.NewRecorder()
		fresh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("fresh pipeline: status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	check := func(stage string) {
		resp, body := doReq(t, http.MethodGet, ts.URL+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stage, resp.StatusCode, body)
		}
		if want := freshBody(); !bytes.Equal(body, want) {
			t.Errorf("%s: served answer diverges from a fresh batch pipeline\nserved: %s\nfresh:  %s",
				stage, body, want)
		}
		// And the (now-current) answer is cached: repeat hits.
		repeat, body2 := doReq(t, http.MethodGet, ts.URL+path, nil)
		if repeat.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s: repeat X-Cache = %q, want hit", stage, repeat.Header.Get("X-Cache"))
		}
		if !bytes.Equal(body2, body) {
			t.Errorf("%s: cache hit differs from its own miss", stage)
		}
	}

	check("after first checkpoint")
	gen1 := srv.Pipeline().Generation()

	streamN(512)
	in.CheckpointAll(ctx)
	if got := srv.Pipeline().Generation(); got <= gen1 {
		t.Fatalf("checkpoint did not move the generation (%d -> %d)", gen1, got)
	}
	check("after more live records + checkpoint")

	for streamN(512) {
	}
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	check("after seal (day in the lake)")
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// --- streaming CSV ----------------------------------------------------------

// TestStreamingCSVMatchesBuffered: a healthy streamed export carries
// exactly the buffered export's bytes plus the completion trailer.
func TestStreamingCSVMatchesBuffered(t *testing.T) {
	store, days := buildLake(t, 2, flowrec.FormatV1)
	_, ts := newEquivServer(t, lakeConfig(store), Options{})
	span := fmt.Sprintf("from=%s&to=%s", days[0].Format("2006-01-02"), days[1].Format("2006-01-02"))

	buffered, bufBody := doReq(t, http.MethodGet,
		ts.URL+"/v1/scan?"+span+"&format=csv&limit=1000000", nil)
	if buffered.StatusCode != http.StatusOK {
		t.Fatalf("buffered export: status %d", buffered.StatusCode)
	}
	if buffered.Header.Get("X-Scan-Truncated") != "" {
		t.Fatal("buffered export truncated; enlarge the limit")
	}

	streamed, streamBody := doReq(t, http.MethodGet,
		ts.URL+"/v1/scan?"+span+"&format=csv&stream=true", nil)
	if streamed.StatusCode != http.StatusOK {
		t.Fatalf("streamed export: status %d", streamed.StatusCode)
	}
	if got := streamed.Trailer.Get("X-Scan-Complete"); got != "true" {
		t.Errorf("X-Scan-Complete trailer = %q, want true", got)
	}
	if got := streamed.Trailer.Get("X-Scan-Error"); got != "" {
		t.Errorf("healthy stream carried X-Scan-Error = %q", got)
	}
	if !bytes.Equal(streamBody, bufBody) {
		t.Errorf("streamed bytes differ from buffered export (%d vs %d bytes)",
			len(streamBody), len(bufBody))
	}
	if streamed.Header.Get("ETag") != "" {
		t.Error("streams must not carry ETags (they are never cached)")
	}

	// Parameter discipline: a stream is uncapped CSV by definition.
	for _, bad := range []string{"&stream=true", "&format=csv&stream=true&limit=5", "&stream=yes&format=csv"} {
		resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/scan?"+span+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scan%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStreamingCSVDamagedDay: a day failing mid-decode after the
// stream committed to 200 must terminate with the error trailer — a
// client checking trailers can never mistake the torn export for a
// complete one.
func TestStreamingCSVDamagedDay(t *testing.T) {
	lake := newMemLake()
	d0 := fakeDay
	d1 := fakeDay.AddDate(0, 0, 1)
	lake.addDay(d0, 5, 100, 10)
	lake.addDay(d1, 7, 100, 10)
	lake.failAfter[d1.Unix()] = 3
	_, ts := newEquivServer(t, core.Config{Storage: lake, Workers: 1}, Options{})

	resp, body := doReq(t, http.MethodGet,
		ts.URL+"/v1/scan?from=2016-04-01&to=2016-04-02&format=csv&stream=true", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (the stream commits to 200 before the damage)", resp.StatusCode)
	}
	if got := resp.Trailer.Get("X-Scan-Error"); !strings.Contains(got, "corrupt") {
		t.Errorf("X-Scan-Error trailer = %q, want the corruption error", got)
	}
	if got := resp.Trailer.Get("X-Scan-Complete"); got != "" {
		t.Errorf("damaged stream carried X-Scan-Complete = %q", got)
	}
	// The healthy day (5 records) and the damaged day's clean prefix
	// (3 records) were flushed before the failure: header + 8 rows.
	if lines := strings.Count(strings.TrimSuffix(string(body), "\n"), "\n"); lines != 8 {
		t.Errorf("torn stream delivered %d data rows, want 8 (5 healthy + 3 prefix)", lines)
	}
}

// --- admin endpoints --------------------------------------------------------

// TestAdminAuthGates: no token configured → 403 for everyone; token
// configured → 401 without/with the wrong one, 409 while another
// admin operation holds the lock, 200 with the right one.
func TestAdminAuthGates(t *testing.T) {
	store, _ := buildLake(t, 2, flowrec.FormatV1)
	cfg := lakeConfig(store)
	cfg.RollupDir = filepath.Join(t.TempDir(), "rollup")

	_, open := newEquivServer(t, cfg, Options{})
	resp, body := doReq(t, http.MethodPost, open.URL+"/v1/admin/rollups/prewarm", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("tokenless server: status %d, want 403: %s", resp.StatusCode, body)
	}

	srv, ts := newEquivServer(t, cfg, Options{AdminToken: "sesame"})
	for _, c := range []struct {
		hdr  map[string]string
		want int
	}{
		{nil, http.StatusUnauthorized},
		{map[string]string{"Authorization": "Bearer wrong"}, http.StatusUnauthorized},
		{map[string]string{"Authorization": "Bearer sesame"}, http.StatusOK},
	} {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/admin/rollups/prewarm", c.hdr)
		if resp.StatusCode != c.want {
			t.Errorf("prewarm with %v: status %d, want %d: %s", c.hdr, resp.StatusCode, c.want, body)
		}
	}

	srv.adminMu.Lock()
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/admin/rollups/prewarm",
		map[string]string{"Authorization": "Bearer sesame"})
	srv.adminMu.Unlock()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("concurrent admin op: status %d, want 409: %s", resp.StatusCode, body)
	}

	// Prewarm without a rollup tier is a client error, not a crash.
	bare, bareTS := newEquivServer(t, lakeConfig(store), Options{AdminToken: "sesame"})
	_ = bare
	resp, body = doReq(t, http.MethodPost, bareTS.URL+"/v1/admin/rollups/prewarm",
		map[string]string{"Authorization": "Bearer sesame"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("prewarm without rollup tier: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestAdminCompactRefreshesCache: compaction rewrites every day file;
// the next answer must be recomputed (new generation, new ETag) yet
// byte-identical — compaction changes encodings, never records.
func TestAdminCompactRefreshesCache(t *testing.T) {
	store, days := buildLake(t, 2, flowrec.FormatV1)
	srv, ts := newEquivServer(t, lakeConfig(store), Options{AdminToken: "sesame"})
	auth := map[string]string{"Authorization": "Bearer sesame"}
	url := fmt.Sprintf("%s/v1/scan?from=%s&to=%s", ts.URL,
		days[0].Format("2006-01-02"), days[1].Format("2006-01-02"))

	first, body1 := doReq(t, http.MethodGet, url, nil)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, body1)
	}
	etag1 := first.Header.Get("ETag")
	if repeat, _ := doReq(t, http.MethodGet, url, nil); repeat.Header.Get("X-Cache") != "hit" {
		t.Fatalf("scan repeat not cached (X-Cache %q)", repeat.Header.Get("X-Cache"))
	}
	gen0 := srv.Pipeline().Generation()

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/admin/compact?format=v3", auth)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.DaysCompacted != 2 || cr.Format != "v3" {
		t.Errorf("compact response %+v, want 2 days to v3", cr)
	}
	if cr.Generation <= gen0 {
		t.Errorf("compact left generation at %d (was %d)", cr.Generation, gen0)
	}

	after, body2 := doReq(t, http.MethodGet, url, nil)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-compact scan: status %d", after.StatusCode)
	}
	if after.Header.Get("X-Cache") != "miss" {
		t.Errorf("post-compact X-Cache = %q, want miss (old generation entries are stale)",
			after.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body2, body1) {
		t.Error("compaction changed scan results (must only change the encoding)")
	}
	if after.Header.Get("ETag") == etag1 {
		t.Error("ETag survived compaction (generation half must differ)")
	}

	// Strict parameters, and no lake means no compaction.
	for _, bad := range []string{"?format=v9", "?bogus=1"} {
		resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/admin/compact"+bad, auth)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("compact%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	_, simTS := newEquivServer(t, servequivConfig(), Options{AdminToken: "sesame"})
	resp, _ = doReq(t, http.MethodPost, simTS.URL+"/v1/admin/compact", auth)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("compact without a lake: status %d, want 400", resp.StatusCode)
	}
}
