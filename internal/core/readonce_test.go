package core

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/metrics"
)

// countingStorage counts, per day, the record reads and derived-state
// probes that reach the storage it wraps, and per window the rollup
// loads.
type countingStorage struct {
	Storage
	mu                                    sync.Mutex
	reads, aggLoads, partLoads, rollLoads map[string]int
}

func newCountingStorage(s Storage) *countingStorage {
	return &countingStorage{Storage: s, reads: map[string]int{}, aggLoads: map[string]int{},
		partLoads: map[string]int{}, rollLoads: map[string]int{}}
}

func (c *countingStorage) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	c.mu.Lock()
	c.rollLoads[string(g)+"-"+start.Format("2006-01-02")]++
	c.mu.Unlock()
	return c.Storage.LoadRollup(g, start)
}

func (c *countingStorage) count(m map[string]int, day time.Time) {
	c.mu.Lock()
	m[day.Format("2006-01-02")]++
	c.mu.Unlock()
}

func (c *countingStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	c.count(c.reads, day)
	return c.Storage.ReadDayCols(day, sc, fn)
}

func (c *countingStorage) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	c.count(c.aggLoads, day)
	return c.Storage.LoadAgg(day)
}

func (c *countingStorage) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	c.count(c.partLoads, day)
	return c.Storage.LoadPartials(day)
}

// runAllExperiments renders every registered experiment, in registry
// order, on one pipeline over storage — one report run.
func runAllExperiments(t *testing.T, storage Storage, aggDir, rollupDir string, ids ...string) {
	t.Helper()
	p := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride, Workers: 4,
		Storage: storage, AggCacheDir: aggDir, RollupDir: rollupDir})
	exps := AllExperiments()
	if len(ids) > 0 {
		exps = exps[:0]
		for _, id := range ids {
			exps = append(exps, Lookup0(id))
		}
	}
	for _, e := range exps {
		if err := e.Run(context.Background(), p, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
}

// TestEachDayReadOnce pins stage one's cost per report: however many
// figures ask for a day, and at whatever column width, one pipeline
// reads each lake day once and probes each outage day once, then
// remembers both. A fresh pipeline over the agg cache the first one
// primed reads no lake day at all and probes each day's derived state
// at most once. (An outage leaves nothing on disk to remember, so the
// second pipeline probes the lake for it once more.)
func TestEachDayReadOnce(t *testing.T) {
	var lake, outages []time.Time
	for i, d := range colsEqDays() {
		if i%5 == 2 {
			outages = append(outages, d)
		} else {
			lake = append(lake, d)
		}
	}
	store := buildStoreFormat(t, t.TempDir(), flowrec.FormatV3, lake)
	aggDir := t.TempDir()

	cold := newCountingStorage(NewDiskStorage(store, aggDir))
	runAllExperiments(t, cold, aggDir, "")
	for _, d := range lake {
		if n := cold.reads[d.Format("2006-01-02")]; n != 1 {
			t.Errorf("cold run: lake day %s read %d times, want 1", d.Format("2006-01-02"), n)
		}
	}
	for _, d := range outages {
		k := d.Format("2006-01-02")
		if cold.reads[k] != 1 || cold.aggLoads[k] != 1 || cold.partLoads[k] != 1 {
			t.Errorf("cold run: outage day %s probed %d reads / %d agg loads / %d partial loads, want 1 each",
				k, cold.reads[k], cold.aggLoads[k], cold.partLoads[k])
		}
	}

	warm := newCountingStorage(NewDiskStorage(store, aggDir))
	runAllExperiments(t, warm, aggDir, "")
	for _, d := range lake {
		k := d.Format("2006-01-02")
		if warm.reads[k] != 0 || warm.aggLoads[k] > 1 || warm.partLoads[k] > 1 {
			t.Errorf("warm run: lake day %s saw %d reads / %d agg loads / %d partial loads, want 0 / ≤1 / ≤1",
				k, warm.reads[k], warm.aggLoads[k], warm.partLoads[k])
		}
	}
	for _, d := range outages {
		if n := warm.reads[d.Format("2006-01-02")]; n > 1 {
			t.Errorf("warm run: outage day %s read %d times, want at most 1", d.Format("2006-01-02"), n)
		}
	}
}

// TestWarmRollupsHit guards the rollup tier's hit test: rollups are
// built from aggregates at the pipeline's one width, so a persisted
// window must read as usable at that width, or every run rebuilds
// every window. A fresh pipeline over primed rollup and agg caches must
// answer the tier-served experiments from persisted windows, build
// none, and read no day file.
func TestWarmRollupsHit(t *testing.T) {
	store := buildStoreFormat(t, t.TempDir(), flowrec.FormatV3, colsEqDays())
	aggDir, rollupDir := t.TempDir(), t.TempDir()
	tiered := []string{"fig3", "fig8", "active"}
	runAllExperiments(t, NewDiskStorage(store, aggDir).WithRollupDir(rollupDir), aggDir, rollupDir, tiered...)

	hits, builds := metrics.GetCounter("rollup.hits"), metrics.GetCounter("rollup.builds")
	hits0, builds0 := hits.Load(), builds.Load()
	warm := newCountingStorage(NewDiskStorage(store, aggDir).WithRollupDir(rollupDir))
	runAllExperiments(t, warm, aggDir, rollupDir, tiered...)
	if hits.Load() == hits0 {
		t.Error("warm run hit no persisted rollup")
	}
	if d := builds.Load() - builds0; d != 0 {
		t.Errorf("warm run rebuilt %d rollup windows, want 0", d)
	}
	if len(warm.reads) != 0 {
		t.Errorf("warm run read day files: %v", warm.reads)
	}
}

// TestMemCacheCountsDistinctDays: the memory-cache counters move once
// per distinct requested day per call — a day repeated in the request
// is one miss (or one hit), not several.
func TestMemCacheCountsDistinctDays(t *testing.T) {
	p := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Workers: 2})
	d1, d2 := date(2016, 4, 1), date(2016, 4, 2)
	ctx := context.Background()
	step := func(days []time.Time, wantHits, wantMisses uint64) {
		t.Helper()
		h0, m0 := mMemHits.Load(), mMemMisses.Load()
		if _, err := p.Aggregate(ctx, days); err != nil {
			t.Fatal(err)
		}
		if h, m := mMemHits.Load()-h0, mMemMisses.Load()-m0; h != wantHits || m != wantMisses {
			t.Errorf("Aggregate(%d days): %d hits / %d misses, want %d / %d", len(days), h, m, wantHits, wantMisses)
		}
	}
	step([]time.Time{d1, d1, d2}, 0, 2)
	step([]time.Time{d2, d1, d2, d1}, 2, 0)
}
