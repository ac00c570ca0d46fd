// Package scan is the one ad-hoc query engine over the lake — the
// "specific queries on historical collections" of section 2.2. The
// /v1/scan endpoint (JSON summary, buffered CSV, streamed CSV) and
// cmd/edgequery are front-ends over Run; nothing else reads day files
// on behalf of a scan, so the projection, the pushdown predicate, the
// cancellation cadence and the damaged-day policy exist once.
package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/flowrec"
)

// Filter selects records. The zero value matches everything. Tech and
// SrvPort compile into a flowrec.Pred the store evaluates during the
// scan (a columnar lake skips whole blocks whose min/max stats cannot
// match, without inflating them); the rest filter decoded records.
type Filter struct {
	// Services keeps records classified as any of these.
	Services []classify.Service
	// Tech is "", "adsl" or "ftth".
	Tech string
	// Proto keeps records with this web-protocol label (e.g. QUIC).
	Proto string
	// SrvPort is an inclusive server-port range; HasSrvPort gates it.
	HasSrvPort           bool
	SrvPortLo, SrvPortHi uint16
	// SubID keeps one subscription; HasSub gates it.
	HasSub bool
	SubID  uint32
}

// SetTech validates and stores an access-technology filter ("" = any).
func (f *Filter) SetTech(s string) error {
	switch s {
	case "", "adsl", "ftth":
		f.Tech = s
		return nil
	}
	return fmt.Errorf("bad tech=%q (want adsl or ftth)", s)
}

// SetSrvPort parses "443" or "6881-6999" strictly — no whitespace, no
// signs, no trailing text: a filter that half-parses would silently run
// a different query than the one asked for. "" clears the filter.
func (f *Filter) SetSrvPort(s string) error {
	if s == "" {
		f.HasSrvPort, f.SrvPortLo, f.SrvPortHi = false, 0, 0
		return nil
	}
	loS, hiS, ranged := strings.Cut(s, "-")
	lo, err := strconv.ParseUint(loS, 10, 16)
	hi := lo
	if err == nil && ranged {
		hi, err = strconv.ParseUint(hiS, 10, 16)
	}
	if err != nil {
		return fmt.Errorf("bad srvport=%q (want port or lo-hi)", s)
	}
	if hi < lo {
		return fmt.Errorf("bad srvport=%q: empty range", s)
	}
	f.HasSrvPort, f.SrvPortLo, f.SrvPortHi = true, uint16(lo), uint16(hi)
	return nil
}

// pred compiles the pushdown predicate, nil when no pushdown filter is
// set.
func (f *Filter) pred() *flowrec.Pred {
	var p flowrec.Pred
	switch f.Tech {
	case "adsl":
		p.HasTech, p.Tech = true, flowrec.TechADSL
	case "ftth":
		p.HasTech, p.Tech = true, flowrec.TechFTTH
	}
	if f.HasSrvPort {
		p.HasSrvPort, p.SrvPortLo, p.SrvPortHi = true, f.SrvPortLo, f.SrvPortHi
	}
	if !p.HasTech && !p.HasSrvPort {
		return nil
	}
	return &p
}

// match applies the post-decode filters.
func (f *Filter) match(svc classify.Service, rec *flowrec.Record) bool {
	if len(f.Services) > 0 && !slices.Contains(f.Services, svc) {
		return false
	}
	if f.Proto != "" && rec.Web.String() != f.Proto {
		return false
	}
	return !f.HasSub || rec.SubID == f.SubID
}

// Source is the day-file reader a scan runs over — the same one read
// stage one uses; core.Storage (fault wrapper included) and
// *flowrec.Store both satisfy it.
type Source = analytics.DayReader

// Query is one scan.
type Query struct {
	Days   []time.Time
	Filter Filter
	// Workers is the per-day block-decode width (ColScan.Workers).
	// Columnar days decode on that many goroutines and still deliver in
	// file order, so every output is byte-identical for any value.
	Workers int
	// CSV, when set, makes the scan a record export: every matching
	// record is written there as a CSV row (header first) in lake order
	// — day by day, file order within a day — the scan is full-width,
	// and a damaged day fails the run outright: dropping rows from an
	// export would present an incomplete extract as complete. Nil scans
	// only the tally columns and a damaged day lands in
	// Result.FailedDays instead.
	CSV io.Writer
	// Limit caps the exported records (0 = uncapped); the scan stops at
	// the first match past the cap and sets Result.Truncated.
	Limit int
	// DayDone, when set, runs after each day's rows have been flushed
	// to CSV — where a streaming caller pushes them to the wire.
	DayDone func()
}

// SvcRow is one service's tally.
type SvcRow struct {
	Service   string `json:"service"`
	Flows     uint64 `json:"flows"`
	DownBytes uint64 `json:"down_bytes"`
	UpBytes   uint64 `json:"up_bytes"`
}

// Result is what a scan saw — JSON-tagged because /v1/scan serves it
// as is. Tallies cover cleanly scanned days only.
type Result struct {
	// ScannedDays counts days read to a clean end. Days absent from the
	// lake are probe outages and count nowhere; FailedDays lists (as
	// YYYY-MM-DD) days that errored after decode began — damaged files.
	ScannedDays int      `json:"scanned_days"`
	FailedDays  []string `json:"failed_days,omitempty"`
	// Scanned counts records that passed the pushdown predicate, Matched
	// those that also passed the post-decode filters.
	Scanned uint64 `json:"scanned_records"`
	Matched uint64 `json:"matched_records"`
	// Services is the per-service tally of matched records, largest
	// download first (ties by name).
	Services []SvcRow `json:"services"`
	// Truncated reports that an export stopped at Query.Limit with
	// matching records still unread.
	Truncated bool `json:"-"`
	// Visited counts every record the scan touched, failed and aborted
	// days included — the work done, as opposed to the work reported.
	Visited uint64 `json:"-"`
}

// summaryCols is the projection a tally needs: classification inputs
// (Web, ServerName), the SubID filter field and the summed volumes.
// Predicate columns are added by the reader itself.
var summaryCols = flowrec.Cols(
	flowrec.ColWeb, flowrec.ColServerName, flowrec.ColSubID,
	flowrec.ColBytesDown, flowrec.ColBytesUp,
)

// tally accumulates per-service rows.
type tally map[classify.Service]*SvcRow

func (t tally) add(svc classify.Service, flows, down, up uint64) {
	row := t[svc]
	if row == nil {
		row = &SvcRow{Service: string(svc)}
		if svc == "" {
			row.Service = "(unclassified)"
		}
		t[svc] = row
	}
	row.Flows += flows
	row.DownBytes += down
	row.UpBytes += up
}

// errLimit aborts an export that reached Query.Limit.
var errLimit = errors.New("scan: record limit reached")

// Run executes q over src, classifying with cls. Days run serially on
// the calling goroutine — across-query parallelism is the caller's
// admission pool, within-day parallelism is q.Workers. The context is
// checked between days and every 1,024 records, so deadlines and
// disconnects abort mid-file.
//
// Each day tallies into a staging area merged only on a clean read: a
// day that fails mid-decode has delivered an arbitrary prefix of its
// records, and folding that prefix into totals reported as clean would
// silently mix damaged data in. One error table serves every caller:
// flowrec.ErrNoDay is an outage (skipped), a context error aborts, any
// other read error is damage — recorded in FailedDays, and fatal to an
// export. The Result is valid (and FailedDays names the fatal day) even
// when an error is returned.
func Run(ctx context.Context, src Source, cls *classify.Classifier, q Query) (res Result, err error) {
	sc := flowrec.ColScan{Cols: summaryCols, Pred: q.Filter.pred(), Workers: q.Workers}
	var cw *flowrec.CSVWriter
	if q.CSV != nil {
		if cw, err = flowrec.NewCSVWriter(q.CSV); err != nil {
			return res, err
		}
		sc.Cols = 0 // exports need every field
		// Whatever ends the export, the rows that decoded cleanly go
		// out: the reader of a torn stream sees where it died.
		defer func() {
			if ferr := cw.Flush(); err == nil {
				err = ferr
			}
		}()
	}
	f := &q.Filter
	emitted := 0
	var sinkErr error // a failed CSV write: the sink broke, not the day
	total := make(tally)
	for _, day := range q.Days {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		var dayScanned, dayMatched uint64
		staged := make(tally)
		err := src.ReadDayCols(day, sc, func(rec *flowrec.Record) error {
			dayScanned++
			if (res.Visited+dayScanned)%1024 == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			svc := analytics.ServiceOf(cls, rec)
			if !f.match(svc, rec) {
				return nil
			}
			if cw != nil {
				if q.Limit > 0 && emitted >= q.Limit {
					return errLimit
				}
				emitted++
				if sinkErr = cw.Write(rec); sinkErr != nil {
					return sinkErr
				}
			}
			dayMatched++
			staged.add(svc, 1, rec.BytesDown, rec.BytesUp)
			return nil
		})
		res.Visited += dayScanned
		res.Truncated = errors.Is(err, errLimit)
		switch {
		case err == nil, res.Truncated:
			res.ScannedDays++
			res.Scanned += dayScanned
			res.Matched += dayMatched
			for svc, d := range staged {
				total.add(svc, d.Flows, d.DownBytes, d.UpBytes)
			}
		case errors.Is(err, flowrec.ErrNoDay):
		case sinkErr != nil, errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			return res, err
		default:
			res.FailedDays = append(res.FailedDays, day.Format("2006-01-02"))
			if cw != nil {
				return res, err
			}
			continue
		}
		if res.Truncated {
			break
		}
		if cw != nil {
			if err := cw.Flush(); err != nil {
				return res, err
			}
			if q.DayDone != nil {
				q.DayDone()
			}
		}
	}
	for _, row := range total {
		res.Services = append(res.Services, *row)
	}
	sort.Slice(res.Services, func(i, j int) bool {
		a, b := res.Services[i], res.Services[j]
		if a.DownBytes != b.DownBytes {
			return a.DownBytes > b.DownBytes
		}
		return a.Service < b.Service
	})
	return res, nil
}
