package core

import (
	"context"
	"io"
	"testing"

	"repro/internal/simnet"
)

// BenchmarkFig3MonthlyTrend regenerates Figure 3 (average
// per-subscription daily traffic across the 54 months) end to end —
// synthetic world → flow records → per-day aggregation → figure →
// rendered rows — on a fresh pipeline per iteration, so aggregation
// work is measured rather than cache hits. `make allocbudget` gates its
// allocs/op against alloc_budget.txt; the pipeline configuration is the
// one that budget was measured under and must not drift.
func BenchmarkFig3MonthlyTrend(b *testing.B) {
	e, ok := Lookup("fig3")
	if !ok {
		b.Fatal("fig3 is not registered")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := New(Config{
			Seed:    1,
			Scale:   simnet.Scale{ADSL: 24, FTTH: 12},
			Stride:  60,
			Workers: 4,
		})
		if err := e.Run(context.Background(), p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
