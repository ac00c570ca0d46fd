package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Request-path observability. serve.latency covers admitted queries
// end to end (queue wait included — that is what a client sees);
// serve.shed lives in admit.go next to the mechanism.
var (
	mRequests = metrics.GetCounter("serve.requests")
	mBadReqs  = metrics.GetCounter("serve.bad_requests")
	mErrors   = metrics.GetCounter("serve.errors")
	mTimeouts = metrics.GetCounter("serve.deadline_expired")
	mLatency  = metrics.GetTimer("serve.latency")
)

// Options bounds one Server. The zero value is usable: every field
// defaults sanely in New.
type Options struct {
	// Workers is the number of queries executing at once (default
	// GOMAXPROCS). Each admitted query runs on its request goroutine;
	// this bounds how many hold a slot simultaneously.
	Workers int
	// Queue is how many requests may wait for a slot before new
	// arrivals are shed with 429 (default 2×Workers).
	Queue int
	// QueryTimeout is the per-query deadline, admission wait included
	// (default 30s). Expiry mid-query cancels the pipeline work and
	// answers 504; expiry while still queued answers 504 without the
	// query ever starting.
	QueryTimeout time.Duration
	// MaxScanDays caps a /v1/scan day span (default serve.MaxScanDays).
	MaxScanDays int
	// CacheBytes bounds the response cache over body bytes: 0 means
	// DefaultCacheBytes, negative disables caching entirely.
	CacheBytes int64
	// AdminToken gates the mutating /v1/admin endpoints (bearer
	// token). Empty means the endpoints answer 403: mutation must be
	// opted into, never on by accident.
	AdminToken string
}

// Server wires one pipeline behind the HTTP surface. All queries
// share the pipeline's in-memory day cache, disk agg cache and rollup
// tier; the pipeline's own locking makes that safe, and the admission
// pool makes it bounded.
type Server struct {
	p     *core.Pipeline
	opt   Options
	adm   *admission
	mux   *http.ServeMux
	start time.Time
	cache *respCache

	// adminMu serializes the mutating admin endpoints: compaction and
	// prewarm both rewrite shared on-disk state, and "one at a time,
	// 409 the rest" is a simpler contract than interleaving them.
	adminMu sync.Mutex

	// dayCount caches the healthz lake-day count per generation, so a
	// 1 Hz load-balancer probe does one directory listing per lake
	// mutation instead of one per probe.
	dayMu    sync.Mutex
	dayGen   uint64
	dayN     int
	dayValid bool
}

// New builds a Server around an assembled pipeline.
func New(p *core.Pipeline, opt Options) *Server {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Queue <= 0 {
		opt.Queue = 2 * opt.Workers
	}
	if opt.QueryTimeout <= 0 {
		opt.QueryTimeout = 30 * time.Second
	}
	if opt.MaxScanDays <= 0 {
		opt.MaxScanDays = MaxScanDays
	}
	cacheBytes := opt.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	s := &Server{
		p:     p,
		opt:   opt,
		adm:   newAdmission(opt.Workers, opt.Queue),
		mux:   http.NewServeMux(),
		start: time.Now(),
		cache: newRespCache(cacheBytes),
	}
	// healthz and metrics bypass admission: they are how an operator
	// (or load balancer) sees a saturated server, so they must answer
	// while the pool is full. The admin endpoints bypass it too — an
	// operator compacts *because* the server is struggling — but
	// serialize among themselves behind the token gate.
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.admitted(s.queryFigure))
	s.mux.HandleFunc("GET /v1/scan", s.admitted(s.queryScan))
	s.mux.HandleFunc("POST /v1/admin/compact", s.adminEndpoint(s.adminCompact))
	s.mux.HandleFunc("POST /v1/admin/rollups/prewarm", s.adminEndpoint(s.adminPrewarm))
	return s
}

// Handler returns the routed HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline returns the shared pipeline (tests reach through it).
func (s *Server) Pipeline() *core.Pipeline { return s.p }

// result is one response. Query handlers normally buffer the whole
// body before a byte is written, so an error mid-query — deadline,
// storage fault, cancelled client — yields a clean error status,
// never a partial scan on the wire. A handler that cannot afford
// buffering (stream=true scans) sets stream instead of body: the
// server then commits to a 200, writes chunks as they come, and
// reports any mid-stream failure out of band via HTTP trailers —
// streamed results are never cached and carry no ETag. reads names the
// lake days a buffered result was computed from; one that names none
// is not cached.
type result struct {
	contentType string
	body        []byte
	header      http.Header // optional extras (e.g. X-Scan-Truncated)
	stream      func(ctx context.Context, w http.ResponseWriter) error
	reads       dayReads
}

// jsonResult marshals v (indented: the bodies double as the golden
// corpus of the serve-equivalence tier, so they stay diffable).
func jsonResult(v any) (*result, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return &result{contentType: "application/json", body: append(b, '\n')}, nil
}

// csvResult renders a header + rows table.
func csvResult(headers []string, rows [][]string) (*result, error) {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write(headers); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return &result{contentType: "text/csv", body: []byte(sb.String())}, nil
}

// errNotFound marks an unknown figure name (HTTP 404).
type errNotFound struct{ msg string }

func (e *errNotFound) Error() string { return e.msg }

// admitted wraps a query handler with the full request discipline:
// response cache, admission, per-query deadline, latency metrics,
// ETag/If-None-Match handling and error mapping.
func (s *Server) admitted(fn func(ctx context.Context, r *http.Request) (*result, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		t0 := time.Now()
		defer func() { mLatency.ObserveSince(t0) }()

		// The cache is consulted before admission: a hit costs a map
		// read and one stamp read per day the entry read, so making it
		// queue behind pipeline-bound queries would throw the whole
		// benefit away.
		key := cacheKey{path: r.URL.Path, query: r.URL.Query().Encode()}
		if ent := s.cache.get(key, s.current); ent != nil {
			s.writeCached(w, r, ent.res, ent.etag, "hit")
			return
		}

		// The deadline starts at arrival and covers the admission
		// wait — QueryTimeout is the bound on what a client observes,
		// and time spent queued is fully observed.
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.QueryTimeout)
		defer cancel()

		release, err := s.adm.acquire(ctx)
		if err != nil {
			switch {
			case errors.Is(err, errShed):
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusTooManyRequests, "server saturated, retry later")
			case errors.Is(err, context.DeadlineExceeded):
				// The deadline expired while queued: the promised bound
				// applies to queue wait too, so answer 504 rather than
				// running a query whose budget is already spent.
				mTimeouts.Inc()
				s.writeError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("queued past the %s deadline", s.opt.QueryTimeout))
			default:
				// The client vanished while queued; nobody reads an answer.
			}
			return
		}
		defer release()

		res, err := fn(ctx, r)
		if err != nil {
			var bad *BadRequestError
			var nf *errNotFound
			switch {
			case errors.As(err, &bad):
				mBadReqs.Inc()
				s.writeError(w, http.StatusBadRequest, bad.Msg)
			case errors.As(err, &nf):
				s.writeError(w, http.StatusNotFound, nf.msg)
			case errors.Is(err, context.DeadlineExceeded):
				mTimeouts.Inc()
				s.writeError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("query exceeded the %s deadline", s.opt.QueryTimeout))
			case errors.Is(err, context.Canceled):
				// Client disconnect mid-query: nothing to write.
			default:
				mErrors.Inc()
				s.writeError(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		if res.stream != nil {
			s.writeStream(ctx, w, res)
			return
		}
		etag := etagFor(res.reads, res.body)
		s.cache.put(key, res, etag)
		s.writeCached(w, r, res, etag, "miss")
	}
}

// writeCached writes a buffered result with its ETag, answering 304
// when the client's If-None-Match already names these bytes.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, res *result, etag, xcache string) {
	h := w.Header()
	for k, vs := range res.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("ETag", etag)
	h.Set("X-Cache", xcache)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		mNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", res.contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(res.body)
}

// writeStream runs a streaming result: headers and a 200 go out
// first, the body is produced incrementally, and completion status
// travels in declared HTTP trailers — X-Scan-Complete: true on
// success, X-Scan-Error on a mid-stream failure (a damaged day, an
// expired deadline). A client that does not read trailers still
// cannot mistake a torn stream for a complete one as long as it
// checks them; one that can't must fall back to buffered mode.
func (s *Server) writeStream(ctx context.Context, w http.ResponseWriter, res *result) {
	h := w.Header()
	for k, vs := range res.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("Content-Type", res.contentType)
	h.Set("Trailer", "X-Scan-Complete, X-Scan-Error")
	w.WriteHeader(http.StatusOK)
	err := res.stream(ctx, w)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			mTimeouts.Inc()
		} else if !errors.Is(err, context.Canceled) {
			mErrors.Inc()
		}
		h.Set("X-Scan-Error", err.Error())
		return
	}
	h.Set("X-Scan-Complete", "true")
}

// writeError answers a JSON error envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

// --- registry, health, metrics ----------------------------------------------

// ExperimentInfo is one /v1/experiments row.
type ExperimentInfo struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Days   int    `json:"days"`
	Served bool   `json:"served"` // has a /v1/figures/{id} endpoint
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	rows := make([]ExperimentInfo, 0, 16)
	for _, e := range core.AllExperiments() {
		rows = append(rows, ExperimentInfo{
			ID:     e.ID,
			Title:  e.Title,
			Days:   len(e.Days(s.p.Stride())),
			Served: figureSpecs[e.ID] != nil,
		})
	}
	res, err := jsonResult(rows)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", res.contentType)
	w.Write(res.body)
}

// Health is the /v1/healthz body.
type Health struct {
	Status     string `json:"status"`
	UptimeMs   int64  `json:"uptime_ms"`
	Inflight   int64  `json:"inflight"`
	Queued     int64  `json:"queued"`
	LakeDays   int    `json:"lake_days"`
	Rollups    bool   `json:"rollups"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	gen := s.p.Generation()
	h := Health{
		Status:     "ok",
		UptimeMs:   time.Since(s.start).Milliseconds(),
		Inflight:   mInflight.Load(),
		Queued:     mQueuedG.Load(),
		Rollups:    s.p.RollupsEnabled(),
		Generation: gen,
	}
	h.LakeDays = s.lakeDays(gen)
	res, err := jsonResult(h)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", res.contentType)
	w.Write(res.body)
}

// lakeDays returns the lake-day count, recounting only when the lake
// generation moved since the last count: a health probe is polled
// (load balancers hit it at 1 Hz forever), and a full directory
// listing per probe is O(days) filesystem work for an answer that
// only changes when the lake does. Errors are not cached — a count
// that failed retries on the next probe.
func (s *Server) lakeDays(gen uint64) int {
	st := s.p.Storage()
	if st == nil {
		return 0
	}
	s.dayMu.Lock()
	defer s.dayMu.Unlock()
	if s.dayValid && s.dayGen == gen {
		return s.dayN
	}
	days, err := st.Days()
	if err != nil {
		return 0
	}
	s.dayGen, s.dayN, s.dayValid = gen, len(days), true
	return s.dayN
}

// MetricRow is one /v1/metrics entry (counters and gauges carry
// value; histograms and timers carry the summary fields).
type MetricRow struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value,omitempty"`
	Count uint64 `json:"count,omitempty"`
	Sum   int64  `json:"sum,omitempty"`
	P50   int64  `json:"p50,omitempty"`
	P90   int64  `json:"p90,omitempty"`
	P99   int64  `json:"p99,omitempty"`
	Max   int64  `json:"max,omitempty"`
	Unit  string `json:"unit,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	// Same strict contract as ParseQuery: an unknown format must not
	// silently answer in a different one than the client asked for.
	switch r.URL.Query().Get("format") {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		metrics.WriteText(w)
		return
	case "", "json":
	default:
		mBadReqs.Inc()
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad format=%q (want json or text)", r.URL.Query().Get("format")))
		return
	}
	snap := metrics.Default.Snapshot()
	rows := make([]MetricRow, 0, len(snap))
	for _, m := range snap {
		rows = append(rows, MetricRow{
			Name: m.Name, Kind: m.Kind.String(), Value: m.Value,
			Count: m.Count, Sum: m.Sum, P50: m.P50, P90: m.P90, P99: m.P99,
			Max: m.Max, Unit: m.Unit,
		})
	}
	res, err := jsonResult(rows)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", res.contentType)
	w.Write(res.body)
}
