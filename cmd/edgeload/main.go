// Command edgeload is the deterministic load generator for edgeserve:
// it drives a mixed figure/scan query workload at one or more
// concurrency levels and reports the latency SLO curve (p50/p90/p99,
// throughput, shed and error counts) as a table and machine-readable
// JSON. The request *sequence* is deterministic — request i always
// issues the same query, whatever the interleaving — so two runs
// against the same lake exercise identical work.
//
// With -etag the generator behaves like a dashboard that caches: it
// remembers the ETag of every URL it has fetched and sends
// If-None-Match on repeats, so revalidated queries come back 304 with
// no body — the not_modified column shows how much of the workload
// the server never had to re-send.
//
// Usage:
//
//	edgeload -addr http://127.0.0.1:8080 -c 1,2,4,8,16 -n 200
//	edgeload -addr http://127.0.0.1:8080 -c 1,4,16 -n 200 -etag
//	edgeload -addr http://127.0.0.1:8080 -smoke        # CI liveness check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/stats"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edgeload")
	var (
		addr    = flag.String("addr", "", "edgeserve base URL, e.g. http://127.0.0.1:8080 (required)")
		levels  = flag.String("c", "1,2,4,8", "comma-separated concurrency levels to sweep")
		n       = flag.Int("n", 100, "requests per concurrency level")
		mix     = flag.String("mix", "figures", "workload mix: figures, scan, or mixed")
		scanArg = flag.String("scan-query", "from=2014-04-01&to=2014-04-07", "query string for scan requests in the mix")
		timeout = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		jsonOut = flag.String("json", "-", "write the JSON result array here ('-' = stdout, '' = none)")
		etag    = flag.Bool("etag", false, "remember ETags and send If-None-Match on repeats (dashboard mode)")
		token   = flag.String("admin-token", "", "admin bearer token; -smoke then also probes the admin endpoints")
		smoke   = flag.Bool("smoke", false, "probe each endpoint class once and exit 0/1 (the make serve-smoke check)")
	)
	flag.Parse()
	if *addr == "" {
		sf.Fatal(cli.Usagef("-addr is required"))
	}
	base := strings.TrimSuffix(*addr, "/")
	client := &http.Client{Timeout: *timeout}

	if *smoke {
		os.Exit(runSmoke(client, base, *token))
	}

	queries := queryMix(*mix, *scanArg)
	var results []LevelResult
	for _, lvl := range parseLevels(*levels) {
		res := runLevel(client, base, queries, lvl, *n, sf.Seed, *etag)
		results = append(results, res)
		fmt.Fprintf(os.Stderr, "c=%-3d n=%-5d ok=%-5d 304=%-4d shed=%-4d err=%-3d p50=%.1fms p90=%.1fms p99=%.1fms rps=%.1f\n",
			res.Concurrency, res.Requests, res.OK, res.NotModified, res.Shed, res.Errors,
			res.P50Ms, res.P90Ms, res.P99Ms, res.RPS)
	}
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				sf.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			sf.Fatal(err)
		}
	}
}

// LevelResult is one concurrency level's measurement. Latency
// percentiles cover answered requests (200s and 304s — a revalidation
// is a served answer); RPS counts both.
type LevelResult struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	NotModified int     `json:"not_modified,omitempty"` // 304s in -etag mode
	Shed        int     `json:"shed"`                   // 429s: admission control working as intended
	Errors      int     `json:"errors"`                 // anything else non-200/304
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`
	RPS         float64 `json:"rps"`
	WallMs      float64 `json:"wall_ms"`
}

// queryMix builds the deterministic request rotation.
func queryMix(mix, scanQuery string) []string {
	figures := []string{
		"/v1/figures/active",
		"/v1/figures/fig3",
		"/v1/figures/fig8",
		"/v1/figures/fig2?quantiles=0.5,0.9,0.99",
		"/v1/figures/fig10",
		"/v1/experiments",
	}
	scans := []string{"/v1/scan?" + scanQuery}
	switch mix {
	case "figures":
		return figures
	case "scan":
		return scans
	case "mixed":
		return append(append([]string{}, figures...), scans...)
	}
	fmt.Fprintf(os.Stderr, "edgeload: unknown -mix %q (want figures, scan or mixed)\n", mix)
	os.Exit(2)
	return nil
}

// runLevel fires n requests from lvl workers pulling a shared index:
// request i always carries query (seed+i) mod len(queries), whatever
// worker picks it up. In etag mode workers share one ETag memory per
// URL, like browser tabs sharing an HTTP cache.
func runLevel(client *http.Client, base string, queries []string, lvl, n int, seed uint64, etag bool) LevelResult {
	res := LevelResult{Concurrency: lvl, Requests: n}
	var latencies stats.ECDF // answered requests, ms
	var mu sync.Mutex
	etags := make(map[string]string)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < lvl; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				q := queries[(seed+uint64(i))%uint64(len(queries))]
				inm := ""
				if etag {
					mu.Lock()
					inm = etags[q]
					mu.Unlock()
				}
				rt0 := time.Now()
				status, gotTag, err := do(client, http.MethodGet, base+q, "", inm)
				ms := float64(time.Since(rt0).Microseconds()) / 1000
				mu.Lock()
				switch {
				case err != nil:
					res.Errors++
				case status == http.StatusOK:
					res.OK++
					latencies.Add(ms)
					if etag && gotTag != "" {
						etags[q] = gotTag
					}
				case status == http.StatusNotModified:
					res.NotModified++
					latencies.Add(ms)
				case status == http.StatusTooManyRequests:
					res.Shed++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	res.WallMs = float64(wall.Microseconds()) / 1000
	if res.WallMs > 0 {
		res.RPS = float64(res.OK+res.NotModified) / wall.Seconds()
	}
	res.P50Ms = latencies.Quantile(0.50)
	res.P90Ms = latencies.Quantile(0.90)
	res.P99Ms = latencies.Quantile(0.99)
	res.MeanMs = latencies.Mean()
	return res
}

// do issues one request with optional bearer token and If-None-Match
// and fully drains the body (keep-alive reuse keeps the load shape
// about connections honest). Returns the status and the response ETag.
func do(client *http.Client, method, url, token, inm string) (int, string, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, "", err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// runSmoke probes every endpoint class once: the 200s must be 200,
// and the error mapping must answer 400/404/401 (not 500, not a
// hang). It also proves the conditional-request path end to end: a
// figure fetched twice must come back 304 the second time. With
// -admin-token it exercises the admin gate in both directions.
func runSmoke(client *http.Client, base, token string) int {
	type smokeCheck struct {
		method string
		path   string
		token  string
		want   int
	}
	checks := []smokeCheck{
		{http.MethodGet, "/v1/healthz", "", http.StatusOK},
		{http.MethodGet, "/v1/experiments", "", http.StatusOK},
		{http.MethodGet, "/v1/figures/active", "", http.StatusOK},
		{http.MethodGet, "/v1/figures/fig3", "", http.StatusOK},
		{http.MethodGet, "/v1/figures/fig3?format=csv", "", http.StatusOK},
		{http.MethodGet, "/v1/metrics", "", http.StatusOK},
		{http.MethodGet, "/v1/metrics?format=text", "", http.StatusOK},
		{http.MethodGet, "/v1/metrics?format=xml", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/figures/fig3?bogus=1", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/figures/nosuchfigure", "", http.StatusNotFound},
	}
	if token == "" {
		// No token configured server-side either (the two travel
		// together in make serve-smoke): admin must be refused, not
		// open by default.
		checks = append(checks,
			smokeCheck{http.MethodPost, "/v1/admin/rollups/prewarm", "", http.StatusForbidden})
	} else {
		checks = append(checks,
			smokeCheck{http.MethodPost, "/v1/admin/rollups/prewarm", "", http.StatusUnauthorized},
			smokeCheck{http.MethodPost, "/v1/admin/rollups/prewarm", token, http.StatusOK},
		)
	}
	failed := 0
	for _, c := range checks {
		status, _, err := do(client, c.method, base+c.path, c.token, "")
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "edgeload: smoke %s %s: %v\n", c.method, c.path, err)
			failed++
		case status != c.want:
			fmt.Fprintf(os.Stderr, "edgeload: smoke %s %s: got %d, want %d\n", c.method, c.path, status, c.want)
			failed++
		}
	}
	// The conditional round trip: 200 with an ETag, then 304 on
	// If-None-Match with that tag.
	const figure = "/v1/figures/fig3"
	status, tag, err := do(client, http.MethodGet, base+figure, "", "")
	switch {
	case err != nil || status != http.StatusOK:
		fmt.Fprintf(os.Stderr, "edgeload: smoke etag fetch %s: status %d err %v\n", figure, status, err)
		failed++
	case tag == "":
		fmt.Fprintf(os.Stderr, "edgeload: smoke %s: no ETag on 200\n", figure)
		failed++
	default:
		status, _, err = do(client, http.MethodGet, base+figure, "", tag)
		if err != nil || status != http.StatusNotModified {
			fmt.Fprintf(os.Stderr, "edgeload: smoke If-None-Match %s: got %d err %v, want 304\n", figure, status, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "edgeload: smoke ok (%d checks)\n", len(checks)+2)
	return 0
}

func parseLevels(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "edgeload: bad -c element %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
