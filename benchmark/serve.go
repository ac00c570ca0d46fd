package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// panelURLs is the fixed URL space the dashboards draw from, one list
// per panel kind. Six windows over the weekly lake days, four of them
// ending on the hot day, so most refreshes touch data the ingester is
// still changing.
func panelURLs(sealed []time.Time, hot time.Time) map[string][]string {
	f := func(t time.Time) string { return t.Format("2006-01-02") }
	first, last := sealed[0], sealed[len(sealed)-1]
	span := func(from, to time.Time) string { return "from=" + f(from) + "&to=" + f(to) + "&stride=7" }
	windows := []string{
		span(first, last), span(first, sealed[len(sealed)-2]),
		span(first, hot), span(sealed[len(sealed)-2], hot), span(last, hot), "from=" + f(hot),
	}
	urls := map[string][]string{}
	add := func(panel, path string, variants ...[]string) {
		qs := []string{""}
		for _, vs := range variants {
			var next []string
			for _, q := range qs {
				for _, v := range vs {
					next = append(next, q+v)
				}
			}
			qs = next
		}
		for _, q := range qs {
			urls[panel] = append(urls[panel], path+"?"+strings.TrimPrefix(q, "&"))
		}
	}
	and := func(vs ...string) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			if out[i] = v; v != "" {
				out[i] = "&" + v
			}
		}
		return out
	}
	formats := and("", "format=csv")
	for _, tiered := range []string{"active", "fig3", "fig8"} {
		add(tiered, "/v1/figures/"+tiered, and(windows...), formats)
	}
	add("fig2", "/v1/figures/fig2", and(windows...), and("", "tech=adsl", "tech=ftth"), and("", "quantiles=0.5,0.9", "quantiles=0.25,0.5,0.75,0.99"))
	add("fig5", "/v1/figures/fig5", and(windows...), and("", "service=Netflix", "service=YouTube", "service=Facebook,Instagram"))
	add("fig10", "/v1/figures/fig10", and(windows...), and("", "service=YouTube", "service=Netflix"), and("", "quantiles=0.5,0.95"))
	var scanDays []string
	for _, d := range sealed {
		scanDays = append(scanDays, "from="+f(d))
	}
	add("scan", "/v1/scan", and(scanDays...), and("tech=adsl", "tech=ftth"), and("", "srvport=443"))
	return urls
}

// sortedPanels lists the panel kinds in a fixed order (map order would
// make the seeded shuffles differ from run to run).
func sortedPanels(urls map[string][]string) []string {
	panels := make([]string, 0, len(urls))
	for p := range urls {
		panels = append(panels, p)
	}
	sort.Strings(panels)
	return panels
}

// pagePanels is one dashboard page: eight sequential GETs.
var pagePanels = []string{"active", "fig3", "fig8", "fig2", "fig5", "fig5", "fig10", "scan"}

// tracedHandler spans each request on the server side. The client
// sends its own span id in X-Bench-Span, so the request span hangs
// under the GET that caused it; cur lets the storage wrapper hang the
// pipeline's storage calls under the latest request.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	cur  *atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	id := h.tr.start("serve.request", parent)
	h.cur.Store(id)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// checkBody is the client-side output check of one response: a 200
// whose body parses as what it claims to be.
func checkBody(status int, contentType string, body []byte) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("status %d: %.80s", status, body)
	case strings.HasPrefix(contentType, "application/json"):
		if !json.Valid(body) {
			return fmt.Errorf("body is not valid JSON")
		}
	case strings.HasPrefix(contentType, "text/csv"):
		if _, err := csv.NewReader(bytes.NewReader(body)).ReadAll(); err != nil {
			return fmt.Errorf("body is not valid CSV: %w", err)
		}
	default:
		return fmt.Errorf("unexpected content type %q", contentType)
	}
	return nil
}

func runServeLive(cfg config, root string, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := &window{}
	s := cfg.size
	t0 := time.Now()

	// Set-up: the sealed lake, its derived state, the hot day's stream
	// prefix, then the two daemons sharing the directories - separate
	// storage instances, as edged and edgeserve are separate processes
	// that meet only through the files.
	lakeDir := filepath.Join(root, "lake")
	aggDir, rollupDir := filepath.Join(lakeDir, ".agg"), filepath.Join(root, "rollups")
	store, err := flowrec.OpenStoreFormat(lakeDir, flowrec.FormatV3)
	if err != nil {
		return nil, err
	}
	base := core.Config{Seed: cfg.seed, Scale: s.serveScale, Store: store, AggCacheDir: aggDir, RollupDir: rollupDir}
	prime := core.New(base)
	sealedRecords, err := prime.GenerateStore(ctx, prime.Storage(), s.serveSealed)
	if err != nil {
		return nil, err
	}
	if _, err := prime.Aggregate(ctx, s.serveSealed); err != nil {
		return nil, err
	}
	grid := core.RangeDays(s.serveSealed[0], s.serveHot, 7)
	if _, err := prime.BuildRollups(ctx, grid); err != nil {
		return nil, err
	}
	ticks := int(cfg.seconds / s.ingestTick.Seconds())
	stream := bufferStream(simnet.NewWorld(cfg.seed, s.serveScale), []time.Time{s.serveHot}, ticks*s.ingestChunk, 0)
	if len(stream) < ticks*s.ingestChunk {
		return nil, fmt.Errorf("hot day has %d records, the window needs %d", len(stream), ticks*s.ingestChunk)
	}

	var ingestCur, serveCur atomic.Int64
	in, _, err := openIngester(cfg, lakeDir, tr, &ingestCur)
	if err != nil {
		return nil, err
	}
	serveCfg := base
	serveCfg.Store = nil
	serveCfg.Storage = storageFor(store, aggDir, rollupDir, tr, &serveCur)
	srv := serve.New(core.New(serveCfg), serve.Options{Workers: 2})
	handler := srv.Handler()
	if tr != nil {
		handler = &tracedHandler{next: handler, tr: tr, cur: &serveCur}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		httpSrv.Serve(ln)
	}()
	defer func() {
		httpSrv.Shutdown(ctx)
		<-served
	}()
	baseURL := "http://" + ln.Addr().String()

	// Every page's URLs are drawn up front from the seed: each panel
	// walks its own seeded shuffle of its URL list, page by page in
	// schedule order, so every run covers the URL space evenly and the
	// seed only decides which URL meets which moment.
	urls := panelURLs(s.serveSealed, s.serveHot)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	cursor := map[string]int{}
	for _, panel := range sortedPanels(urls) {
		list := urls[panel]
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	const clients = 2
	pages := make([][][]string, clients)
	window := time.Duration(cfg.seconds * float64(time.Second))
	for k := 0; time.Duration(k)*s.pagePeriod < window; k++ {
		for c := range pages {
			if time.Duration(c)*s.pageStagger+time.Duration(k)*s.pagePeriod >= window {
				continue
			}
			page := make([]string, len(pagePanels))
			for i, panel := range pagePanels {
				page[i] = urls[panel][cursor[panel]%len(urls[panel])]
				cursor[panel]++
			}
			pages[c] = append(pages[c], page)
		}
	}
	w.setup = time.Since(t0)
	nURLs := 0
	for _, list := range urls {
		nURLs += len(list)
	}
	w.fixture = []kv{
		{"adsl_lines", int64(s.serveScale.ADSL)}, {"ftth_lines", int64(s.serveScale.FTTH)},
		{"sealed_days", int64(len(s.serveSealed))}, {"sealed_records", int64(sealedRecords)},
		{"lake_bytes", dirBytes(lakeDir)}, {"url_space", int64(nURLs)},
		{"ingest_records_per_s", int64(float64(s.ingestChunk) / s.ingestTick.Seconds())},
	}

	// The window. Ingester and clients all run on the wall-clock
	// schedule fixed above: open loop at a stated rate, each page timed
	// from when it was due.
	var (
		mu        sync.Mutex // guards w's op fields and the maps below
		fetched   = map[string]bool{}
		respBytes int64
		responses int
		wg        sync.WaitGroup // the ingester and the clients
		toggler   sync.WaitGroup
		ingestErr error
	)
	gen0 := prime.Generation()
	b := beginWindow()
	stopToggle := make(chan struct{})
	if tr != nil {
		// Recording flips every two page periods, so a page is traced
		// or not as a whole (tracedAt).
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			tick := time.NewTicker(2 * s.pagePeriod)
			defer tick.Stop()
			for on := false; ; on = !on {
				tr.enable(on)
				select {
				case <-tick.C:
				case <-stopToggle:
					return
				}
			}
		}()
	}
	tracedAt := func(due time.Duration) bool { return tr != nil && int(due/(2*s.pagePeriod))%2 == 1 }

	wg.Add(1)
	go func() {
		defer wg.Done()
		fed := 0
		for k := 0; k < ticks && ingestErr == nil; k++ {
			time.Sleep(time.Until(b.t0.Add(time.Duration(k) * s.ingestTick)))
			id := tr.start("ingest.ingest", 0)
			ingestCur.Store(id)
			for end := fed + s.ingestChunk; fed < end && ingestErr == nil; fed++ {
				ingestErr = in.Ingest(ctx, &stream[fed].Rec, stream[fed].At)
			}
			tr.end(id)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for k, page := range pages[c] {
				due := time.Duration(c)*s.pageStagger + time.Duration(k)*s.pagePeriod
				time.Sleep(time.Until(b.t0.Add(due)))
				lag := time.Since(b.t0.Add(due))
				op := tr.start("driver.op", 0)
				var opErr error
				var got int64
				for i, u := range page {
					id := tr.start("driver.get:"+pagePanels[i], op)
					n, err := get(client, baseURL+u, id)
					tr.end(id)
					got += n
					if err != nil {
						opErr = fmt.Errorf("GET %s: %w", u, err)
						break
					}
				}
				d := time.Since(b.t0.Add(due))
				tr.end(op)
				mu.Lock()
				w.op(d, opErr, tracedAt(due))
				w.lagMs = append(w.lagMs, ms(lag))
				if opErr == nil {
					responses += len(page)
					respBytes += got
					for _, u := range page {
						fetched[u] = true
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stopToggle)
	toggler.Wait()
	b.end(w)
	tr.enable(true)

	w.work = float64(responses)
	w.workPerS = float64(responses) / w.wall.Seconds()
	w.responseBytes = respBytes

	// After the window: stop the ingester (a final checkpoint, the day
	// stays hot), then every URL the clients fetched must read the
	// same from the long-lived server as from a fresh one over the
	// same directories.
	if ingestErr != nil {
		w.check("ingest", false, "%v", ingestErr)
	}
	if err := in.Close(ctx); err != nil {
		w.check("ingester close", false, "%v", err)
	}
	streamed := int64(ticks * s.ingestChunk)
	w.records = sealedRecords + uint64(streamed)
	w.diskBytes = dirBytes(root)
	w.counts = []kv{
		{"sealed_records", int64(sealedRecords)}, {"streamed_records", streamed},
		{"ops", int64(w.attempted)}, {"responses", int64(responses)},
		{"bumps", int64(prime.Generation() - gen0)},
	}
	w.fixture = append(w.fixture, kv{"streamed_records", streamed}, kv{"generation_bumps_in_window", w.delta["ingest.checkpoints"]}, kv{"tree_bytes_after_close", w.diskBytes})
	w.check("nothing shed", w.delta["serve.shed"] == 0, "serve.shed moved by %d", w.delta["serve.shed"])
	// The smoke tier runs under the race detector and on loaded CI
	// hosts too; only the sized run is held to its schedule.
	w.check("offered rate held", !s.gatePace || quantile(w.lagMs, 1) < ms(s.pagePeriod), "latest page start %.1f ms behind schedule", quantile(w.lagMs, 1))

	fresh := serve.New(core.New(base), serve.Options{Workers: 2}).Handler()
	var distinct []string
	for u := range fetched {
		distinct = append(distinct, u)
	}
	sort.Strings(distinct)
	mismatched := ""
	for _, u := range distinct {
		a, b := recorded(srv.Handler(), u), recorded(fresh, u)
		if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			mismatched = u
			break
		}
	}
	w.check("served equals fresh", mismatched == "" && len(distinct) > 0, "%d distinct URLs re-fetched from the long-lived and a fresh server (first mismatch: %q)", len(distinct), mismatched)
	return w, nil
}

// get fetches one URL and checks the response; it returns the body
// length.
func get(client *http.Client, url string, span int64) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(span, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return int64(len(body)), checkBody(resp.StatusCode, resp.Header.Get("Content-Type"), body)
}

// recorded drives a handler without a socket.
func recorded(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}
