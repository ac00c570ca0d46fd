package analytics

import (
	"context"
	"errors"
	"time"

	"repro/internal/flowrec"
)

// DayReader is the one read a day store offers: a column-projected,
// predicate-filtered scan of one day's file. *flowrec.Store satisfies
// it, and so does any storage wrapper (core.Storage, the fault
// injector) — stage one and the scan engine do not care what sits
// below.
type DayReader interface {
	ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error
}

// StoreSource reads records from a day-partitioned store, pushing the
// scan all the way down.
type StoreSource struct {
	Store DayReader
}

// Records implements Source. The read aborts once ctx is done, so
// cancellation and per-day deadlines interrupt a day mid-file instead
// of after it.
func (s StoreSource) Records(ctx context.Context, day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record)) error {
	n := 0
	err := s.Store.ReadDayCols(day, sc, func(r *flowrec.Record) error {
		// Checking every record would put a branch on the hot decode
		// loop; every 4096 keeps abort latency well under a
		// millisecond at store read rates.
		if n&4095 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		n++
		fn(r)
		return nil
	})
	if errors.Is(err, flowrec.ErrNoDay) {
		return ErrNoData
	}
	return err
}

// FuncSource adapts a generator function (e.g. a simulation world's
// EmitDay) to the Source interface. A generator always emits full
// records, so the projection is moot; the predicate is applied here.
type FuncSource func(day time.Time, fn func(*flowrec.Record)) error

// Records implements Source. A generator cannot be stopped mid-day, so
// once ctx is done (checked at the same cadence as StoreSource) the
// rest of the day is dropped and ctx's error returned.
func (f FuncSource) Records(ctx context.Context, day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record)) error {
	n := 0
	var cerr error
	err := f(day, func(r *flowrec.Record) {
		if cerr != nil {
			return
		}
		if n&4095 == 0 {
			if cerr = ctx.Err(); cerr != nil {
				return
			}
		}
		n++
		if sc.Pred.Match(r) {
			fn(r)
		}
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// scanFor builds the ColScan for a run's column contract: zero cols
// means no projection at all (a plain full read), anything else is
// normalised and decoded with the given block-decode parallelism.
func scanFor(cols flowrec.ColumnSet, workers int) flowrec.ColScan {
	if cols == 0 {
		return flowrec.ColScan{}
	}
	return flowrec.ColScan{Cols: NormalizeCols(cols), Workers: workers}
}
