// Package serve is the query service over the lake: a long-running
// HTTP daemon (cmd/edgeserve) exposing the experiment registry, the
// paper's figures and ad-hoc scans as JSON/CSV endpoints. Queries
// execute concurrently over one shared core.Pipeline — the same
// agg/rollup caches, tier selection and hot-day checkpoints the batch
// binaries use — under per-query deadlines and admission control
// (bounded worker pool + bounded queue, 429 shedding), so N concurrent
// readers cannot OOM one lake.
//
// Repeated queries are answered from a bounded in-memory response
// cache keyed by (endpoint, canonical query). Each entry carries the
// lake days it read and their stamps, and answers only while those
// stamps are unchanged: every lake mutation — WriteDay, quarantine,
// compaction, a live ingester's checkpoint — bumps the stamps of the
// days it touched, so a cached body never outlives the data it was
// derived from, and a checkpoint of the hot day spares every answer
// over sealed days. Responses carry strong ETags ("<sum of the read
// days' stamps>-<body hash>") and honour If-None-Match with 304.
//
// The endpoint surface:
//
//	GET  /v1/healthz                   liveness + lake summary (never queued)
//	GET  /v1/metrics                   the metrics registry (JSON or text)
//	GET  /v1/experiments               the experiment registry
//	GET  /v1/figures/{name}            one figure's data rows (JSON or CSV)
//	GET  /v1/scan                      ad-hoc record scan with pushdown filters
//	POST /v1/admin/compact             rewrite lake days into a columnar format
//	POST /v1/admin/rollups/prewarm     build the rollup tier ahead of queries
//
// Admin endpoints are token-gated (Options.AdminToken), bypass
// admission but serialize among themselves; compaction bumps the
// stamps of the days it rewrote.
package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/scan"
)

// Query bounds. Every limit exists to keep one request from pinning
// the lake: a five-year stride-1 figure request is ~1,800 day
// aggregations, which is the most any batch experiment asks for.
const (
	// MaxRangeDays caps an explicit from/to span (in calendar days,
	// before the stride thins it).
	MaxRangeDays = 2000
	// MaxScanDays caps a /v1/scan span — scans decode records rather
	// than aggregates, so they get a much smaller budget.
	MaxScanDays = 366
	// MaxQuantiles caps a quantiles= list.
	MaxQuantiles = 16
	// MaxServices caps a service= list.
	MaxServices = 16
	// MaxCSVRecords caps limit= on a CSV record scan.
	MaxCSVRecords = 1_000_000
	// DefaultCSVRecords is the record cap when limit= is absent.
	DefaultCSVRecords = 10_000
)

// BadRequestError is a client error: the handler answers 400 with the
// message and never runs the query. Anything that parses cleanly but
// asks for more than the bounds above is also a BadRequestError — a
// malformed or oversized request must never start a partial scan.
type BadRequestError struct{ Msg string }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Msg }

// badf builds a BadRequestError.
func badf(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// Query is one parsed, validated request. Zero fields mean "not
// given"; each endpoint applies its own defaults on top.
type Query struct {
	// From/To bound the day range, inclusive; zero means the figure's
	// default window. To is never set without From.
	From, To time.Time
	// Stride thins an explicit From/To range (0 = endpoint default).
	Stride int
	// Filter carries service= (per-service figures and scans), tech=,
	// proto= and srvport= — the record filters /v1/scan hands to the
	// scan engine as they are.
	scan.Filter
	// Quantiles parameterises distribution figures; each in (0, 1].
	Quantiles []float64
	// Points is the fig4 smoothing resolution (0 = default).
	Points int
	// Limit caps CSV scan records (0 = DefaultCSVRecords).
	Limit int
	// Format is "json" (default) or "csv".
	Format string
	// Stream selects chunked CSV streaming on /v1/scan: no record cap,
	// flushed at day boundaries, completion signalled via HTTP
	// trailers. Mutually exclusive with limit=.
	Stream bool
}

// queryKeys is the full accepted parameter vocabulary. Unknown keys
// are rejected rather than ignored: a typo'd filter (servcie=Netflix)
// silently dropped would run a *broader* query than the client asked
// for, which is the exact failure mode admission control exists to
// prevent.
var queryKeys = map[string]bool{
	"from": true, "to": true, "stride": true, "service": true,
	"tech": true, "proto": true, "quantiles": true, "points": true,
	"srvport": true, "limit": true, "format": true, "stream": true,
}

// ParseQuery parses and validates URL query parameters. All errors
// are BadRequestError (HTTP 400); it never panics on any input — the
// FuzzParseQuery fuzzer holds it to that.
func ParseQuery(values url.Values) (Query, error) {
	var q Query
	for key, vals := range values {
		if !queryKeys[key] {
			return q, badf("unknown parameter %q", key)
		}
		if len(vals) != 1 && key != "service" {
			return q, badf("parameter %q given %d times", key, len(vals))
		}
		for _, v := range vals {
			if len(v) > 256 {
				return q, badf("parameter %q too long", key)
			}
		}
	}
	var err error
	if s := values.Get("from"); s != "" {
		if q.From, err = parseDay(s); err != nil {
			return q, badf("bad from=%q: want YYYY-MM-DD", s)
		}
	}
	if s := values.Get("to"); s != "" {
		if q.From.IsZero() {
			return q, badf("to= requires from=")
		}
		if q.To, err = parseDay(s); err != nil {
			return q, badf("bad to=%q: want YYYY-MM-DD", s)
		}
	} else if !q.From.IsZero() {
		q.To = q.From
	}
	if !q.From.IsZero() {
		if q.To.Before(q.From) {
			return q, badf("empty range: to=%s before from=%s",
				q.To.Format("2006-01-02"), q.From.Format("2006-01-02"))
		}
		if days := int(q.To.Sub(q.From).Hours()/24) + 1; days > MaxRangeDays {
			return q, badf("range of %d days exceeds the %d-day limit", days, MaxRangeDays)
		}
	}
	if s := values.Get("stride"); s != "" {
		if q.Stride, err = parseInt(s, 1, 366); err != nil {
			return q, badf("bad stride=%q: %v", s, err)
		}
	}
	for _, raw := range values["service"] {
		for _, name := range strings.Split(raw, ",") {
			if name == "" {
				return q, badf("empty service name")
			}
			if len(name) > 64 || !printable(name) {
				return q, badf("bad service name %q", name)
			}
			q.Services = append(q.Services, classify.Service(name))
			if len(q.Services) > MaxServices {
				return q, badf("more than %d services", MaxServices)
			}
		}
	}
	if err := q.SetTech(values.Get("tech")); err != nil {
		return q, badf("%v", err)
	}
	if s := values.Get("proto"); s != "" {
		if len(s) > 32 || !printable(s) {
			return q, badf("bad proto=%q", s)
		}
		q.Proto = s
	}
	if s := values.Get("quantiles"); s != "" {
		for _, part := range strings.Split(s, ",") {
			f, ferr := strconv.ParseFloat(part, 64)
			if ferr != nil || f != f /* NaN */ || f <= 0 || f > 1 {
				return q, badf("bad quantile %q: want a number in (0, 1]", part)
			}
			q.Quantiles = append(q.Quantiles, f)
			if len(q.Quantiles) > MaxQuantiles {
				return q, badf("more than %d quantiles", MaxQuantiles)
			}
		}
	}
	if s := values.Get("points"); s != "" {
		if q.Points, err = parseInt(s, 2, 200); err != nil {
			return q, badf("bad points=%q: %v", s, err)
		}
	}
	if err := q.SetSrvPort(values.Get("srvport")); err != nil {
		return q, badf("%v", err)
	}
	if s := values.Get("limit"); s != "" {
		if q.Limit, err = parseInt(s, 1, MaxCSVRecords); err != nil {
			return q, badf("bad limit=%q: %v", s, err)
		}
	}
	switch s := values.Get("format"); s {
	case "", "json":
		q.Format = "json"
	case "csv":
		q.Format = "csv"
	default:
		return q, badf("bad format=%q (want json or csv)", s)
	}
	switch s := values.Get("stream"); s {
	case "", "false":
	case "true":
		q.Stream = true
	default:
		return q, badf("bad stream=%q (want true or false)", s)
	}
	if q.Stream && q.Format != "csv" {
		return q, badf("stream=true requires format=csv")
	}
	if q.Stream && q.Limit != 0 {
		return q, badf("stream=true and limit= are mutually exclusive (a stream is uncapped)")
	}
	return q, nil
}

// parseDay parses a strict YYYY-MM-DD UTC day.
func parseDay(s string) (time.Time, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, err
	}
	return t.UTC(), nil
}

// parseInt parses a bounded decimal integer.
func parseInt(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("want an integer")
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("want %d..%d", lo, hi)
	}
	return v, nil
}

// printable rejects control characters and non-ASCII in identifier-ish
// parameters (service and protocol names are ASCII in this dataset).
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
