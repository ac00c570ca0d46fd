package serve

import (
	"context"
	"crypto/subtle"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/metrics"
)

// The mutating admin surface: POST /v1/admin/compact rewrites lake
// days into a (usually newer) storage format, POST
// /v1/admin/rollups/prewarm builds the rollup tier before queries need
// it. Both are token-gated, bypass admission (an operator acts
// *because* the query pool is saturated) but serialize among
// themselves, run under the request context rather than QueryTimeout
// (compacting a five-year lake legitimately outlives any query
// budget), and bump the lake generation on success so every cached
// response derived from the old bytes revalidates.

var mAdminOps = metrics.GetCounter("serve.admin_ops")

// adminEndpoint wraps a mutating handler with the admin discipline:
// token gate, mutual exclusion, error mapping.
func (s *Server) adminEndpoint(fn func(ctx context.Context, r *http.Request) (*result, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		if s.opt.AdminToken == "" {
			s.writeError(w, http.StatusForbidden, "admin endpoints disabled (no admin token configured)")
			return
		}
		if subtle.ConstantTimeCompare([]byte(bearerToken(r)), []byte(s.opt.AdminToken)) != 1 {
			s.writeError(w, http.StatusUnauthorized, "missing or wrong admin token")
			return
		}
		if !s.adminMu.TryLock() {
			w.Header().Set("Retry-After", "5")
			s.writeError(w, http.StatusConflict, "another admin operation is in progress")
			return
		}
		defer s.adminMu.Unlock()
		mAdminOps.Inc()

		res, err := fn(r.Context(), r)
		if err != nil {
			var bad *BadRequestError
			switch {
			case errors.As(err, &bad):
				mBadReqs.Inc()
				s.writeError(w, http.StatusBadRequest, bad.Msg)
			case errors.Is(err, context.Canceled):
				// Operator hung up mid-operation; nobody reads an answer.
			default:
				mErrors.Inc()
				s.writeError(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		w.Header().Set("Content-Type", res.contentType)
		w.WriteHeader(http.StatusOK)
		w.Write(res.body)
	}
}

// bearerToken extracts the RFC 6750 bearer token, "" when absent.
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return ""
	}
	return auth[len(prefix):]
}

// CompactResponse is the /v1/admin/compact body.
type CompactResponse struct {
	DaysCompacted int    `json:"days_compacted"`
	Records       uint64 `json:"records"`
	Format        string `json:"format"`
	Generation    uint64 `json:"generation"`
	ElapsedMs     int64  `json:"elapsed_ms"`
}

// adminCompact rewrites every lake day into the requested format
// (format=v1|v3, default v3). Days already in the target format
// are rewritten too — CompactDay is idempotent — which doubles as a
// lake-wide integrity pass.
func (s *Server) adminCompact(ctx context.Context, r *http.Request) (*result, error) {
	format := flowrec.FormatV3
	for key, vals := range r.URL.Query() {
		if key != "format" {
			return nil, badf("unknown parameter %q", key)
		}
		if len(vals) != 1 {
			return nil, badf("parameter %q given %d times", key, len(vals))
		}
		var err error
		if format, err = flowrec.ParseFormat(vals[0]); err != nil {
			return nil, badf("bad format=%q (want v1, v3)", vals[0])
		}
	}
	st := s.p.FlowStore()
	if st == nil {
		return nil, badf("this server has no flow lake to compact")
	}
	days, err := st.Days()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	n, recs, err := st.CompactStore(days, format, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	// The lake's physical bytes changed: invalidate every cached
	// response derived from them.
	gen := s.p.BumpGeneration()
	return jsonResult(CompactResponse{
		DaysCompacted: n,
		Records:       recs,
		Format:        format.String(),
		Generation:    gen,
		ElapsedMs:     time.Since(t0).Milliseconds(),
	})
}

// PrewarmResponse is the /v1/admin/rollups/prewarm body.
type PrewarmResponse struct {
	RollupsBuilt int    `json:"rollups_built"`
	Days         int    `json:"days"`
	Generation   uint64 `json:"generation"`
	ElapsedMs    int64  `json:"elapsed_ms"`
}

// adminPrewarm builds the rollup tier over the lake (or an explicit
// from/to window) so the first five-year figure after a restart does
// not pay the build.
func (s *Server) adminPrewarm(ctx context.Context, r *http.Request) (*result, error) {
	var from, to time.Time
	for key, vals := range r.URL.Query() {
		if key != "from" && key != "to" {
			return nil, badf("unknown parameter %q", key)
		}
		if len(vals) != 1 {
			return nil, badf("parameter %q given %d times", key, len(vals))
		}
		d, err := parseDay(vals[0])
		if err != nil {
			return nil, badf("bad %s=%q: want YYYY-MM-DD", key, vals[0])
		}
		if key == "from" {
			from = d
		} else {
			to = d
		}
	}
	if !to.IsZero() && from.IsZero() {
		return nil, badf("to= requires from=")
	}
	if !s.p.RollupsEnabled() {
		return nil, badf("this server has no rollup tier (start it with -rollup)")
	}
	var days []time.Time
	switch {
	case !from.IsZero():
		if to.IsZero() {
			to = from
		}
		if to.Before(from) {
			return nil, badf("empty range: to=%s before from=%s",
				to.Format("2006-01-02"), from.Format("2006-01-02"))
		}
		days = core.RangeDays(from, to, 1)
	default:
		var err error
		if st := s.p.Storage(); st != nil {
			if days, err = st.Days(); err != nil {
				return nil, err
			}
		}
		if len(days) == 0 {
			days = s.p.SpanDays()
		}
	}
	t0 := time.Now()
	built, err := s.p.BuildRollups(ctx, days)
	if err != nil {
		return nil, err
	}
	// Prewarming only *adds* derived state, but the tier selector now
	// answers from rollups where it answered from day aggregates —
	// still byte-identical by the rollup equivalence proofs, yet the
	// conservative contract ("mutating admin op completed → new
	// generation") is cheaper to reason about than an exception.
	gen := s.p.BumpGeneration()
	return jsonResult(PrewarmResponse{
		RollupsBuilt: built,
		Days:         len(days),
		Generation:   gen,
		ElapsedMs:    time.Since(t0).Milliseconds(),
	})
}
