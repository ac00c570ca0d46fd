package flowrec

import (
	"math/rand"
	"testing"
)

// Alloc budgets for the pooled codec paths. The zpool-backed readers
// and writers exist so a warm scan allocates O(blocks), not
// O(records): flate/gzip state, scratch buffers and column slabs are
// all reused across calls. These tests pin that property with hard
// ceilings — far above run-to-run jitter, an order of magnitude below
// what any per-record or per-string allocation would cost at this row
// count. A regression to per-record allocation (the pre-pool codecs
// allocated one []byte per string cell) blows the budget by ~50×.

// scanAllocsPerRecord measures steady-state allocations of a narrow
// scan over the store's day, amortised per record.
func scanAllocsPerRecord(t *testing.T, s *Store, n int, sc ColScan) float64 {
	t.Helper()
	scan := func() {
		if err := s.ReadDayCols(colTestDay, sc, func(*Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the pools: first scan pays pool population
	return testing.AllocsPerRun(5, scan) / float64(n)
}

func TestScanAllocBudget(t *testing.T) {
	const n = 3*colBlockRows + 500
	recs := dayRecords(rand.New(rand.NewSource(41)), colTestDay, n)
	// Narrow projection: the Figure-3 shape these budgets guard.
	sc := ColScan{Cols: ColumnSet(1<<ColSubID | 1<<ColBytesUp | 1<<ColBytesDown).Norm()}

	// The budget is allocs per *record*. Unpooled string decoding alone
	// costs >=1 alloc/record; the pooled columnar path sits well under
	// 0.1 even with block framing, slab growth and callback overhead.
	const budget = 0.1
	t.Run(FormatV3.String(), func(t *testing.T) {
		s, err := OpenStoreFormat(t.TempDir(), FormatV3)
		if err != nil {
			t.Fatal(err)
		}
		writeDayRecords(t, s, colTestDay, recs)
		got := scanAllocsPerRecord(t, s, n, sc)
		t.Logf("v3 narrow scan: %.4f allocs/record", got)
		if got > budget {
			t.Errorf("v3 narrow scan allocates %.4f/record, budget %.4f — a codec stopped pooling", got, budget)
		}
	})
}

// TestV1ScanAllocBudget pins the pooled gzip reader on the v1 row
// path: decompressor state and scratch stay pooled across reads, so
// a warm full-decode scan amortises to well under one allocation per
// record. Unpooled gzip setup alone costs several allocations per
// ReadDay, and per-record string copies cost one each — either
// regression lands far above this budget.
func TestV1ScanAllocBudget(t *testing.T) {
	const n = 3*colBlockRows + 500
	recs := dayRecords(rand.New(rand.NewSource(42)), colTestDay, n)
	s, err := OpenStoreFormat(t.TempDir(), FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, s, colTestDay, recs)
	got := scanAllocsPerRecord(t, s, n, ColScan{})
	t.Logf("v1 full scan: %.4f allocs/record", got)
	if got > 0.5 {
		t.Errorf("v1 scan allocates %.4f/record, budget 0.5 — row codec framing stopped pooling", got)
	}
}
