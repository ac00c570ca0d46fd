package serve

import (
	"bytes"
	"context"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scan"
)

// /v1/scan: the edgequery workload as an endpoint. tech= and srvport=
// compile into a flowrec.Pred the store evaluates during the scan (a
// columnar lake skips whole blocks that cannot match, without even
// inflating them); service= and proto= filter decoded records. The
// JSON answer is the per-service volume summary; format=csv returns
// the matching records themselves, capped by limit= so one curious
// client cannot stream the whole lake through a single response.

var mScanRecords = metrics.GetCounter("serve.scan_records")

// ScanResponse is the JSON summary of a scan: the requested range and
// what the engine saw in it.
type ScanResponse struct {
	From string `json:"from"`
	To   string `json:"to"`
	Days int    `json:"days"`
	scan.Result
}

// queryScan answers GET /v1/scan over the shared scan engine: one
// Run per request, on the request goroutine — across-query parallelism
// comes from the admission pool, and one bounded query must not fan out
// into its own pool on a shared server.
func (s *Server) queryScan(ctx context.Context, r *http.Request) (*result, error) {
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if q.From.IsZero() {
		return nil, badf("scan requires from= (and optionally to=)")
	}
	if q.Stride != 0 || q.Points != 0 || len(q.Quantiles) > 0 {
		return nil, badf("stride/points/quantiles do not apply to /v1/scan")
	}
	days := core.RangeDays(q.From, q.To, 1)
	if len(days) > s.opt.MaxScanDays {
		return nil, badf("scan of %d days exceeds the %d-day limit", len(days), s.opt.MaxScanDays)
	}
	st := s.p.Storage()
	if st == nil {
		return nil, badf("this server has no lake to scan (figures are simulation-fed)")
	}
	sq := scan.Query{Days: days, Filter: q.Filter}
	// A scan reads exactly its days, stamped before the run (a stream
	// is never cached, so its stamps go unused).
	reads := s.readDays(days)
	run := func(ctx context.Context, sq scan.Query) (scan.Result, error) {
		res, err := scan.Run(ctx, st, s.p.Cls, sq)
		mScanRecords.Add(res.Visited)
		return res, err
	}

	switch {
	case q.Stream:
		// The uncapped CSV export: records go to the wire as they decode,
		// flushed at every day boundary so a dashboard piping the stream
		// sees steady progress instead of one burst at the end. The
		// connection commits to 200 before the first record, so
		// correctness travels in trailers: X-Scan-Complete: true only
		// after every requested day streamed cleanly, X-Scan-Error with
		// the failure otherwise — a mid-stream damaged day terminates the
		// export (after the rows that decoded cleanly, so the client sees
		// where it died) rather than presenting a truncated extract as
		// complete.
		// Streams are never cached: they are exports, not dashboard
		// queries, and their bodies are exactly what the cache's
		// entry-size bound exists to keep out.
		return &result{contentType: "text/csv", stream: func(ctx context.Context, w http.ResponseWriter) error {
			sq.CSV = w
			if flusher, ok := w.(http.Flusher); ok {
				sq.DayDone = flusher.Flush
			}
			_, err := run(ctx, sq)
			return err
		}}, nil

	case q.Format == "csv":
		// The buffered CSV export, capped at limit= records so one
		// curious client cannot pull the whole lake through a single
		// response. Record order is lake order, so equal queries answer
		// byte-identically. A truncated response carries X-Scan-Truncated
		// rather than an in-band marker that would corrupt CSV parsers.
		var buf bytes.Buffer
		sq.CSV = &buf
		if sq.Limit = q.Limit; sq.Limit <= 0 {
			sq.Limit = DefaultCSVRecords
		}
		res, err := run(ctx, sq)
		if err != nil {
			return nil, err
		}
		out := &result{contentType: "text/csv", body: buf.Bytes(), reads: reads}
		if res.Truncated {
			out.header = http.Header{"X-Scan-Truncated": []string{"true"}}
			out.header.Set("X-Scan-Limit", strconv.Itoa(sq.Limit))
		}
		return out, nil
	}

	res, err := run(ctx, sq)
	if err != nil {
		return nil, err
	}
	out, err := jsonResult(ScanResponse{
		From:   days[0].Format("2006-01-02"),
		To:     days[len(days)-1].Format("2006-01-02"),
		Days:   len(days),
		Result: res,
	})
	if err != nil {
		return nil, err
	}
	out.reads = reads
	return out, nil
}
