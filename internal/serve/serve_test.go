package serve

// The serving-side concurrency contract, run under -race in CI:
// many queries sharing one pipeline's caches, queries against a hot
// day while an ingester checkpoints it, admission control shedding
// 429s at saturation, and per-query deadlines cancelling cleanly
// with no leaked goroutines.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/simnet"
)

// httpStatus is the goroutine-safe fetch (no t.Fatalf): status + body.
func httpStatus(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitFor polls cond to true within 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fakeStorage is a minimal core.Storage for admission and deadline
// tests: one day whose scan either blocks until released or emits
// records endlessly until the callback aborts it. Everything else is
// the embedded core.DiskStorage with no lake and no caches.
type fakeStorage struct {
	core.Storage
	day     time.Time
	entered chan struct{} // receives one token per scan started
	release chan struct{} // when non-nil, a scan blocks here first
	endless bool          // emit records until fn returns an error
}

func (f *fakeStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	if !day.Equal(f.day) {
		return flowrec.ErrNoDay
	}
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	var rec flowrec.Record
	if f.endless {
		for {
			if err := fn(&rec); err != nil {
				return err
			}
		}
	}
	for i := 0; i < 4; i++ {
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return nil
}

var fakeDay = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

// TestConcurrentQueriesSharedCaches drives many goroutines through
// the full figure surface of one server — one pipeline, one agg
// cache, one rollup tier, one classifier memo. Every answer must be
// 200, and equal URLs must answer byte-identical bodies no matter
// which goroutine asked or in what interleaving.
func TestConcurrentQueriesSharedCaches(t *testing.T) {
	cfg := servequivConfig()
	cfg.AggCacheDir = filepath.Join(t.TempDir(), "agg")
	cfg.RollupDir = filepath.Join(t.TempDir(), "rollup")
	_, ts := newEquivServer(t, cfg, Options{Workers: 4, Queue: 64})

	urls := []string{
		ts.URL + "/v1/figures/active",
		ts.URL + "/v1/figures/fig3",
		ts.URL + "/v1/figures/fig8",
		ts.URL + "/v1/figures/fig2",
		ts.URL + "/v1/figures/fig10",
		ts.URL + "/v1/experiments",
	}
	const goroutines, rounds = 8, 4
	var mu sync.Mutex
	first := make(map[string][]byte)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < rounds*len(urls); i++ {
				url := urls[(g+i)%len(urls)]
				status, body, err := httpStatus(client, url)
				if err != nil || status != http.StatusOK {
					t.Errorf("goroutine %d: GET %s: status %d err %v", g, url, status, err)
					return
				}
				mu.Lock()
				if prev, ok := first[url]; !ok {
					first[url] = body
				} else if string(prev) != string(body) {
					t.Errorf("goroutine %d: %s answered differently across queries", g, url)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// TestServeHotDayDuringIngest queries a hot (unsealed) day over HTTP
// while an edged-style ingester is still absorbing records and
// swapping checkpoints beneath the lake — the serving half of the
// hot-day contract. A fresh pipeline serves each request so every
// query really re-reads the moving checkpoint state.
func TestServeHotDayDuringIngest(t *testing.T) {
	day := simnet.SpanStart.AddDate(0, 0, 7)
	dir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	aggDir := filepath.Join(dir, "agg")
	in, err := ingest.Open(ingest.Config{
		Storage:         core.NewDiskStorage(store, aggDir),
		WALDir:          filepath.Join(dir, "lake", flowrec.WALDirName),
		CheckpointEvery: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := simnet.NewWorld(7, simnet.Scale{ADSL: 8, FTTH: 4})
	src := w.Stream([]time.Time{day})
	ctx := context.Background()

	// A first absorbed batch guarantees the readers find a checkpoint.
	var sr simnet.StreamRecord
	for i := 0; i < 256 && src.Next(&sr); i++ {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	in.CheckpointAll(ctx)

	pcfg := core.Config{Seed: 7, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 2,
		Store: store, AggCacheDir: aggDir}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		New(core.New(pcfg), Options{}).Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	url := fmt.Sprintf("%s/v1/figures/active?from=%s&to=%s",
		ts.URL, day.Format("2006-01-02"), day.Format("2006-01-02"))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				select {
				case <-done:
					return
				default:
				}
				status, body, err := httpStatus(client, url)
				if err != nil || status != http.StatusOK {
					t.Errorf("hot-day query during ingest: status %d err %v: %s", status, err, body)
					return
				}
				var resp struct {
					Rows []core.ActiveRow `json:"rows"`
				}
				if jerr := json.Unmarshal(body, &resp); jerr != nil {
					t.Errorf("hot-day response: %v", jerr)
					return
				}
				if len(resp.Rows) != 1 || resp.Rows[0].Observed == 0 {
					t.Errorf("hot-day query served empty figure despite checkpoints: %s", body)
					return
				}
			}
		}()
	}

	n := 0
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
		if n++; n%512 == 0 {
			in.CheckpointAll(ctx)
		}
	}
	in.CheckpointAll(ctx)
	close(done)
	wg.Wait()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionShedsWith429 saturates a Workers=1/Queue=1 server: the
// first query holds the slot, the second waits, the third is shed
// with 429 + Retry-After and counted in serve.shed. Releasing the
// slot drains the queue — both held queries answer 200.
func TestAdmissionShedsWith429(t *testing.T) {
	fake := &fakeStorage{Storage: core.NewDiskStorage(nil, ""), day: fakeDay, entered: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newEquivServer(t, core.Config{Storage: fake, Workers: 1}, Options{Workers: 1, Queue: 1})
	url := ts.URL + "/v1/scan?from=2016-04-01"
	shed0, queued0 := mShed.Load(), mQueuedG.Load()

	aCh := make(chan int, 1)
	go func() {
		status, _, _ := httpStatus(&http.Client{}, url)
		aCh <- status
	}()
	<-fake.entered // A holds the worker slot inside the scan

	bCh := make(chan int, 1)
	go func() {
		status, _, _ := httpStatus(&http.Client{}, url)
		bCh <- status
	}()
	waitFor(t, "request B to queue", func() bool { return mQueuedG.Load() > queued0 })

	status, body, err := httpStatus(&http.Client{}, url)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", status, body)
	}
	if got := mShed.Load(); got != shed0+1 {
		t.Errorf("serve.shed = %d, want %d", got, shed0+1)
	}

	close(fake.release)
	if got := <-aCh; got != http.StatusOK {
		t.Errorf("held query A answered %d, want 200", got)
	}
	if got := <-bCh; got != http.StatusOK {
		t.Errorf("queued query B answered %d, want 200", got)
	}
}

// TestDeadlineExpiresCleanly runs a query whose scan never ends
// against a short per-query deadline: the handler must answer 504,
// count serve.deadline_expired, and leak nothing — the goroutine
// count settles back to its pre-query baseline.
func TestDeadlineExpiresCleanly(t *testing.T) {
	fake := &fakeStorage{Storage: core.NewDiskStorage(nil, ""), day: fakeDay, endless: true}
	_, ts := newEquivServer(t, core.Config{Storage: fake, Workers: 1},
		Options{QueryTimeout: 100 * time.Millisecond})
	client := &http.Client{}

	// Warm the connection pool, then take the goroutine baseline.
	if status, _, err := httpStatus(client, ts.URL+"/v1/healthz"); err != nil || status != 200 {
		t.Fatalf("healthz: status %d err %v", status, err)
	}
	client.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	g0 := runtime.NumGoroutine()

	timeouts0 := mTimeouts.Load()
	status, body, err := httpStatus(client, ts.URL+"/v1/scan?from=2016-04-01")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired query answered %d, want 504: %s", status, body)
	}
	if got := mTimeouts.Load(); got != timeouts0+1 {
		t.Errorf("serve.deadline_expired = %d, want %d", got, timeouts0+1)
	}

	client.CloseIdleConnections()
	waitFor(t, "goroutines to settle after deadline expiry", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= g0+2
	})
}

// TestFigureParams pins each figure's parameter surface: a parameter
// the figure does not consume is a 400, never silently ignored, and
// every parameter a figure does consume is accepted.
func TestFigureParams(t *testing.T) {
	_, ts := newEquivServer(t, servequivConfig(), Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/figures/fig4?from=2014-04-01", http.StatusBadRequest},
		{"/v1/figures/fig3?quantiles=0.5", http.StatusBadRequest},
		{"/v1/figures/fig10?tech=adsl", http.StatusBadRequest},
		{"/v1/figures/fig2?service=YouTube", http.StatusBadRequest},
		{"/v1/figures/fig3?points=10", http.StatusBadRequest},
		{"/v1/figures/fig3?proto=QUIC", http.StatusBadRequest},
		{"/v1/figures/fig3?srvport=443", http.StatusBadRequest},
		{"/v1/figures/fig3?format=csv&limit=3", http.StatusBadRequest},
		{"/v1/figures/fig3?format=csv&stream=true", http.StatusBadRequest},
		{"/v1/figures/fig3?stride=1", http.StatusBadRequest},
		{"/v1/figures/fig4?stride=3", http.StatusBadRequest},
		{"/v1/figures/table1", http.StatusNotFound},
		{"/v1/figures/nosuchfigure", http.StatusNotFound},

		{"/v1/figures/fig3?from=2016-01-01&to=2016-03-31&stride=30", http.StatusOK},
		{"/v1/figures/fig2?quantiles=0.5&tech=ftth", http.StatusOK},
		{"/v1/figures/fig4?points=10", http.StatusOK},
		{"/v1/figures/fig5?from=2016-01-01&service=YouTube", http.StatusOK},
		{"/v1/figures/fig10?quantiles=0.9&service=Google", http.StatusOK},
	}
	for _, c := range cases {
		status, body := fetch(t, ts.URL+c.path)
		if status != c.want {
			t.Errorf("GET %s: status %d, want %d: %s", c.path, status, c.want, body)
		}
	}
}
