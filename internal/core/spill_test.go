package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Pipeline-level spill tests: the bounded-memory external merge must
// be invisible end to end — byte-identical aggregates through the full
// Config surface, under fault injection and retries included — and the
// pooled cache codecs must survive concurrent loads (the -race suite
// runs this file too).

// TestSpillPipelineEquivalence: a pipeline with a tiny memory budget
// (every check spills) and a tiny fan-in (forcing multi-pass external
// merges) produces canonical aggregates byte-identical to the
// unbounded run, across the full store→aggregate path.
func TestSpillPipelineEquivalence(t *testing.T) {
	days := MonthDays(2016, time.April)[:6]
	dir := t.TempDir()
	buildChaosStore(t, dir, flowrec.FormatV3, days)
	store, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	base := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: store})
	want, err := base.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}

	mSpills := metrics.GetCounter("analytics.spills")
	for _, width := range []int{1, 3} {
		spills0 := mSpills.Load()
		p := New(Config{
			Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: store,
			ShardsPerDay: width, MemBudget: 1, SpillDir: t.TempDir(), SpillFanIn: 2,
		})
		got, err := p.Aggregate(context.Background(), days)
		if err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
		if mSpills.Load() == spills0 {
			t.Fatalf("width=%d: budget never forced a spill; the test exercised nothing", width)
		}
		if len(got) != len(want) {
			t.Fatalf("width=%d: %d days, want %d", width, len(got), len(want))
		}
		for i := range want {
			bw, err := analytics.CanonicalBytes(want[i])
			if err != nil {
				t.Fatal(err)
			}
			bg, err := analytics.CanonicalBytes(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bw, bg) {
				t.Errorf("width=%d: day %s diverges from the unbounded run",
					width, want[i].Day.Format("2006-01-02"))
			}
		}
	}
}

// TestSpillUnderChaos runs the budgeted pipeline through the fault
// matrix: converging classes (transient, latency) must stay
// byte-identical to the clean unbounded run — a retried attempt must
// not leak spilled partials into the next — and corrupting classes
// must degrade exactly as they do without a budget.
func TestSpillUnderChaos(t *testing.T) {
	days := MonthDays(2016, time.April)[:6]
	base := t.TempDir()
	buildChaosStore(t, base, flowrec.FormatV3, days)
	cleanStore, err := flowrec.OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	clean := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: cleanStore})
	want, err := clean.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}

	classes := []struct {
		name     string
		spec     string
		converge bool
	}{
		{"transient-io", "readday:p=0.2,transient", true},
		{"latency", "readday:p=0.5,latency=1ms", true},
		{"truncation", "readday:p=0.3,truncate", false},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, base, dir)
			store, err := flowrec.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := faultinject.Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			p := New(Config{
				Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: store,
				Degrade: true, Faults: plan, Retry: chaosPolicy(),
				ShardsPerDay: 2, MemBudget: 1, SpillDir: t.TempDir(), SpillFanIn: 2,
			})
			got, err := p.Aggregate(context.Background(), days)
			if err != nil {
				t.Fatal(err)
			}
			if !c.converge {
				if len(p.DayErrors()) == 0 {
					t.Error("corrupting class produced no day errors under a budget")
				}
				return
			}
			if errs := p.DayErrors(); len(errs) > 0 {
				t.Fatalf("converging class degraded days: %v", errs[0])
			}
			if len(got) != len(want) {
				t.Fatalf("%d days, want %d", len(got), len(want))
			}
			for i := range want {
				bw, err := analytics.CanonicalBytes(want[i])
				if err != nil {
					t.Fatal(err)
				}
				bg, err := analytics.CanonicalBytes(got[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bw, bg) {
					t.Errorf("day %s: budgeted run under %s faults diverges from clean run",
						want[i].Day.Format("2006-01-02"), c.name)
				}
			}
		})
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
