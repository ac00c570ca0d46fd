package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// Store-format equivalence: the columnar format prunes columns, skips
// blocks and inflates per block, so the proof obligation is that no
// experiment can tell v1 and v3 apart — same seed, same days,
// byte-identical canonical aggregates, at decode widths 1 and 3 (at
// colsEqScale days are mostly one v3 block, so the width-3 legs mainly
// guard the single-block path; shard_test.go runs multi-block days). The
// second test closes the gap byte-identity cannot see: a column missing
// from analytics.AggregateColumns would make both formats equally
// wrong, so the pipeline's aggregates are compared against a stage one
// that decodes every column of the same store.

const colsEqSeed = 99

var colsEqScale = simnet.Scale{ADSL: 8, FTTH: 4}

// colsEqStride keeps the day sets small: span experiments sample ~7
// days, the April figures their fixed 60.
const colsEqStride = 240

// buildStoreFormat materialises days of the colsEq world into dir in
// the given format and returns the opened store.
func buildStoreFormat(t *testing.T, dir string, format flowrec.Format, days []time.Time) *flowrec.Store {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(dir, format)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Workers: 8})
	n, err := p.GenerateStore(context.Background(), NewDiskStorage(store, ""), days)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("generated zero records")
	}
	return store
}

// colsEqDays is the union of every day any experiment consumes at the
// colsEq stride.
func colsEqDays() []time.Time {
	return chaosDays(colsEqStride)
}

// canonicalAll encodes aggs with CanonicalBytes, in order.
func canonicalAll(t *testing.T, aggs []*analytics.DayAgg) [][]byte {
	t.Helper()
	out := make([][]byte, len(aggs))
	for i, a := range aggs {
		b, err := analytics.CanonicalBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestFormatCanonicalEquivalence(t *testing.T) {
	days := colsEqDays()
	formats := []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3}
	stores := make([]*flowrec.Store, len(formats))
	for i, format := range formats {
		stores[i] = buildStoreFormat(t, t.TempDir(), format, days)
	}
	ctx := context.Background()

	for _, width := range []int{1, 3} {
		// Every experiment's days are a subset of colsEqDays and every
		// aggregate is folded at the one pipeline width, so one
		// Aggregate over the union per store is what a report run's day
		// cache holds. v1 is the baseline; every other format must match
		// it byte for byte.
		var want [][]byte
		for i, format := range formats {
			p := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
				Workers: 4, ShardsPerDay: width, Store: stores[i]})
			aggs, err := p.Aggregate(ctx, days)
			if err != nil {
				t.Fatalf("width=%d: %s aggregate: %v", width, format, err)
			}
			got := canonicalAll(t, aggs)
			if i == 0 {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("width=%d: v1 has %d days, %s has %d", width, len(want), format, len(got))
			}
			for d := range got {
				if !bytes.Equal(got[d], want[d]) {
					t.Errorf("width=%d: day %s aggregates diverge between v1 and %s",
						width, aggs[d].Day.Format("2006-01-02"), format)
				}
			}
		}
	}
}

// TestAggregateColumnsLoseNothing is the width contract: the pipeline
// folds every day at analytics.AggregateColumns, so no accumulator may
// read a column outside it. Over both formats and at decode widths 1
// and 3, Pipeline.Aggregate must be byte-identical to a stage one that
// decodes every column of the same store. v1 always decodes everything, so it
// catches an accumulator gated off by a missing column; v3 decodes
// only the requested columns, so it catches an accumulator fed a
// zeroed field.
func TestAggregateColumnsLoseNothing(t *testing.T) {
	days := colsEqDays()
	ctx := context.Background()
	for _, format := range []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3} {
		store := buildStoreFormat(t, t.TempDir(), format, days)
		for _, width := range []int{1, 3} {
			p := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
				Workers: 4, ShardsPerDay: width, Store: store})
			got, err := p.Aggregate(ctx, days)
			if err != nil {
				t.Fatalf("%s width=%d: pipeline aggregate: %v", format, width, err)
			}
			full, dayErrs, err := analytics.RunReport(ctx, analytics.StoreSource{Store: store}, days, p.Cls,
				analytics.RunConfig{Workers: 4, DecodeWidth: width, Cols: flowrec.AllColumns})
			if err != nil || len(dayErrs) > 0 {
				t.Fatalf("%s width=%d: full-width stage one: %v %v", format, width, err, dayErrs)
			}
			if len(got) != len(full) || len(got) != len(days) {
				t.Fatalf("%s width=%d: pipeline has %d days, full-width %d, lake %d",
					format, width, len(got), len(full), len(days))
			}
			gb, fb := canonicalAll(t, got), canonicalAll(t, full)
			for i := range gb {
				if !bytes.Equal(gb[i], fb[i]) {
					t.Errorf("%s width=%d: day %s differs from the full-width fold; an accumulator reads a column outside AggregateColumns",
						format, width, got[i].Day.Format("2006-01-02"))
				}
			}
		}
	}
}
