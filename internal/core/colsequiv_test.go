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
// experiment can tell v1 and v3 apart —
// same seed, same days, byte-identical canonical aggregates, serial
// and sharded alike. The second test closes the gap
// byte-identity cannot see: a column missing from an experiment's
// declared set would make both formats equally wrong, so each figure
// rendered from its pruned aggregates is compared against the same
// figure rendered from full-width aggregates of the same store.

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

func TestFormatCanonicalEquivalence(t *testing.T) {
	days := colsEqDays()
	formats := []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3}
	stores := make([]*flowrec.Store, len(formats))
	for i, format := range formats {
		stores[i] = buildStoreFormat(t, t.TempDir(), format, days)
	}
	ctx := context.Background()

	for _, shards := range []int{1, 3} {
		// One pipeline per store and sharding level: experiments share
		// the day cache exactly as a real report run would, including
		// the union-recompute when column sets widen — identical on
		// every side because the experiment order is identical. v1 is
		// the baseline; every other format must match it byte for byte.
		ps := make([]*Pipeline, len(formats))
		for i := range formats {
			ps[i] = New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
				Workers: 4, ShardsPerDay: shards, Store: stores[i]})
		}
		for _, e := range AllExperiments() {
			edays := e.Days(colsEqStride)
			if len(edays) == 0 {
				continue
			}
			a1, err := ps[0].AggregateCols(ctx, edays, e.Cols)
			if err != nil {
				t.Fatalf("%s shards=%d: v1 aggregate: %v", e.ID, shards, err)
			}
			want := make([][]byte, len(a1))
			for i := range a1 {
				if want[i], err = analytics.CanonicalBytes(a1[i]); err != nil {
					t.Fatal(err)
				}
			}
			for fi := 1; fi < len(formats); fi++ {
				af, err := ps[fi].AggregateCols(ctx, edays, e.Cols)
				if err != nil {
					t.Fatalf("%s shards=%d: %s aggregate: %v", e.ID, shards, formats[fi], err)
				}
				if len(af) != len(a1) {
					t.Fatalf("%s shards=%d: v1 has %d days, %s has %d",
						e.ID, shards, len(a1), formats[fi], len(af))
				}
				for i := range af {
					bf, err := analytics.CanonicalBytes(af[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bf, want[i]) {
						t.Errorf("%s shards=%d: day %s aggregates diverge between v1 and %s",
							e.ID, shards, af[i].Day.Format("2006-01-02"), formats[fi])
						break
					}
				}
			}
		}
	}
}

// TestDeclaredColumnsSufficeForRender renders every experiment twice
// from the same v3 store: once normally (aggregates pruned to the
// experiment's declared column set) and once from a pipeline whose day
// cache was pre-warmed at full width, so the cache serves unpruned
// aggregates to the same run. Any divergence means the experiment
// reads a column its declaration omits — the failure mode v1-vs-v3
// byte-identity is structurally blind to.
func TestDeclaredColumnsSufficeForRender(t *testing.T) {
	days := colsEqDays()
	store := buildStoreFormat(t, t.TempDir(), flowrec.FormatV3, days)
	ctx := context.Background()

	for _, e := range AllExperiments() {
		edays := e.Days(colsEqStride)
		if len(edays) == 0 {
			continue
		}
		// A fresh pipeline per experiment keeps the pruned side strict:
		// a shared cache would leak columns widened by earlier
		// experiments into later ones.
		cfg := Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
			Workers: 4, Store: store}
		pruned := New(cfg)
		full := New(cfg)
		if _, err := full.AggregateCols(ctx, edays, flowrec.AllColumns); err != nil {
			t.Fatalf("%s: full-width prewarm: %v", e.ID, err)
		}

		var prunedOut, fullOut bytes.Buffer
		if err := e.Run(ctx, pruned, &prunedOut); err != nil {
			t.Fatalf("%s: pruned render: %v", e.ID, err)
		}
		if err := e.Run(ctx, full, &fullOut); err != nil {
			t.Fatalf("%s: full-width render: %v", e.ID, err)
		}
		if !bytes.Equal(prunedOut.Bytes(), fullOut.Bytes()) {
			t.Errorf("%s: rendering from column-pruned aggregates diverges from full-width aggregates; its Cols declaration is missing a column the figure reads", e.ID)
		}
	}
}
