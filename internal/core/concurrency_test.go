package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// TestAggregateConcurrentCallers hammers one pipeline's Aggregate
// from several goroutines over overlapping day windows — the -race
// guard for the reservation cache under contention. Every caller must
// see the same per-day aggregate pointers afterwards (days computed
// exactly once).
func TestAggregateConcurrentCallers(t *testing.T) {
	p := testPipeline()
	april := MonthDays(2016, time.April)
	windows := [][]time.Time{
		april[:4],
		april[2:6],
		april[:6],
		april[3:5],
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			days := windows[g%len(windows)]
			if _, err := p.Aggregate(context.Background(), days); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	// Repeat serially: everything is now cached, and a second pass
	// over the union returns identical pointers.
	a1, err := p.Aggregate(context.Background(), april[:6])
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Aggregate(context.Background(), april[:6])
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 6 || len(a2) != 6 {
		t.Fatalf("lengths %d, %d, want 6", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("day %d recomputed after concurrent warm-up", i)
		}
	}
}

// TestAggregateConcurrentNoDrop regresses the reservation race: a
// caller that found a day already claimed by a concurrent Aggregate
// used to treat the in-flight day as an outage and silently drop it
// from its own result. Every concurrent call over a fully-available
// window must return every requested day.
func TestAggregateConcurrentNoDrop(t *testing.T) {
	april := MonthDays(2016, time.April)
	windows := [][]time.Time{
		april[:4],
		april[2:6], // overlaps the first window's tail
		april[:6],
		april[3:5],
	}
	// Several rounds on fresh pipelines: the race needs one caller to
	// catch another mid-computation, which a single run can miss.
	for round := 0; round < 3; round++ {
		p := testPipeline()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				days := windows[g%len(windows)]
				aggs, err := p.Aggregate(context.Background(), days)
				if err != nil {
					t.Error(err)
					return
				}
				if len(aggs) != len(days) {
					t.Errorf("concurrent Aggregate returned %d days, want %d (in-flight days dropped)", len(aggs), len(days))
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestGenerateStoreBoundedGoroutines regresses the goroutine-per-day
// spawn: generating many days must not grow the goroutine count
// beyond the configured worker pool (plus test overhead).
func TestGenerateStoreBoundedGoroutines(t *testing.T) {
	p := testPipeline() // Workers: 4
	store, err := flowrec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	days := MonthDays(2016, time.April) // 30 days >> 4 workers
	before := runtime.NumGoroutine()
	quit := make(chan struct{})
	peakCh := make(chan int, 1)
	go func() {
		peak := 0
		for {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			select {
			case <-quit:
				peakCh <- peak
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	n, err := p.GenerateStore(context.Background(), NewDiskStorage(store, ""), days)
	close(quit)
	peak := <-peakCh
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records generated")
	}
	// Allow slack for runtime/test goroutines; the old implementation
	// peaked at before+30.
	if peak > before+4+6 {
		t.Errorf("goroutines peaked at %d (baseline %d): pool not bounded", peak, before)
	}
}

// TestConcurrentCacheLoads hammers the pooled gob+gzip cache codecs
// from many goroutines at once — agg, partial and rollup loads share
// the same zpool reader/writer pools, so any pooled-state aliasing
// shows up here under -race (the ci race target runs this test).
func TestConcurrentCacheLoads(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)
	cfg := Config{Seed: 5, Scale: simnet.Scale{ADSL: 10, FTTH: 5}, Workers: 2,
		AggCacheDir: dir, RollupDir: t.TempDir()}
	p := New(cfg)
	aggs, err := p.Aggregate(context.Background(), []time.Time{day})
	if err != nil {
		t.Fatal(err)
	}
	want := aggs[0].Flows
	stor := NewDiskStorage(nil, dir)
	parts := shardPartialsForDay(t, cfg, day)
	if err := stor.SavePartials(day, parts); err != nil {
		t.Fatal(err)
	}

	const loaders = 16
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				agg, err := stor.LoadAgg(day)
				if err != nil || agg == nil || agg.Flows != want {
					t.Errorf("concurrent LoadAgg: agg=%v err=%v", agg, err)
					return
				}
				got, err := stor.LoadPartials(day)
				if err != nil || len(got) == 0 {
					t.Errorf("concurrent LoadPartials: n=%d err=%v", len(got), err)
					return
				}
				// Writers share pools with readers; interleave saves.
				if i%5 == 0 {
					if err := stor.SaveAgg(agg); err != nil {
						t.Errorf("concurrent SaveAgg: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// shardPartialsForDay splits a day's records over two client-hash
// partials, for seeding the partial cache the way the ingester's
// multi-frame checkpoints do.
func shardPartialsForDay(t *testing.T, cfg Config, day time.Time) []*analytics.Partial {
	t.Helper()
	world := simnet.NewWorld(cfg.Seed, cfg.Scale)
	aggs := []*analytics.Aggregator{
		analytics.NewAggregator(day, nil),
		analytics.NewAggregator(day, nil),
	}
	world.EmitDay(day, func(r *flowrec.Record) {
		aggs[r.Shard(len(aggs))].Add(r)
	})
	parts := make([]*analytics.Partial, len(aggs))
	for i, a := range aggs {
		parts[i] = a.Partial()
	}
	return parts
}
