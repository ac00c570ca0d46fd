package core

// Decode-width equivalence at the pipeline level: every experiment of
// the paper registry must render byte-identical reports whatever
// ShardsPerDay (the per-day block-decode width) is, over a v3 store so
// the parallel reader really runs; and the persisted form of a day
// must not depend on the width or the host.

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// buildWorldStore materialises days of the (seed, scale) world into a
// fresh v3 store.
func buildWorldStore(t *testing.T, seed uint64, scale simnet.Scale, days []time.Time) *flowrec.Store {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(t.TempDir(), flowrec.FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: seed, Scale: scale, Workers: 8})
	if _, err := p.GenerateStore(context.Background(), NewDiskStorage(store, ""), days); err != nil {
		t.Fatal(err)
	}
	return store
}

// widthTestScale is large enough that an April 2017 day spans several
// v3 blocks, so the reorder buffer has blocks to reorder.
var widthTestScale = simnet.Scale{ADSL: 60, FTTH: 30}

// TestShardEquivalenceAllExperiments renders every experiment in
// Experiments() over a v3 lake at decode widths 1 and 3 and
// byte-compares the reports: the decode width is invisible in every
// table and figure. The lake holds a few of the days the experiments
// sample, at widthTestScale, so days span several blocks and the
// reorder buffer runs under every experiment; the rest are skipped as
// missing.
func TestShardEquivalenceAllExperiments(t *testing.T) {
	all := colsEqDays()
	days := []time.Time{all[0], all[len(all)/2], all[len(all)-2], all[len(all)-1]}
	store := buildWorldStore(t, colsEqSeed, widthTestScale, days)
	mk := func(width int) *Pipeline {
		return New(Config{Seed: colsEqSeed, Scale: widthTestScale, Stride: colsEqStride,
			Workers: 2, ShardsPerDay: width, Store: store})
	}
	blocks, read := metrics.GetCounter("store.blocks_read"), metrics.GetCounter("store.days_read")
	blocks0, read0 := blocks.Load(), read.Load()
	p1, p3 := mk(1), mk(3)
	for _, e := range Experiments() {
		var b1, b3 bytes.Buffer
		if err := e.Run(context.Background(), p1, &b1); err != nil {
			t.Fatalf("%s (width 1): %v", e.ID, err)
		}
		if err := e.Run(context.Background(), p3, &b3); err != nil {
			t.Fatalf("%s (width 3): %v", e.ID, err)
		}
		if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
			t.Errorf("%s: report differs between decode widths 1 and 3", e.ID)
		}
	}
	if blocks.Load()-blocks0 <= read.Load()-read0 {
		t.Fatal("every day read was a single block: the reorder buffer never ran")
	}
}

// TestShardEquivalenceAggregates compares the aggregates themselves
// (canonical bytes, stronger than rendered text) across decode widths,
// over multi-block v3 days.
func TestShardEquivalenceAggregates(t *testing.T) {
	days := MonthDays(2017, time.April)[:6]
	store := buildWorldStore(t, 99, widthTestScale, days)
	var want [][]byte
	for _, width := range []int{1, 4} {
		p := New(Config{Seed: 99, Scale: widthTestScale, Workers: 2, ShardsPerDay: width, Store: store})
		aggs, err := p.Aggregate(context.Background(), days)
		if err != nil {
			t.Fatal(err)
		}
		got := canonicalAll(t, aggs)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("day counts differ: %d vs %d", len(want), len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: width-%d aggregate differs from serial decode", aggs[i].Day.Format("2006-01-02"), width)
			}
		}
	}
}

// TestPartialCacheRoundTrip: a cold cached run persists each day once
// as a final aggregate, whatever the decode width — the representation
// no longer depends on the host. Partials written through SavePartials
// (the ingester's form) still replay byte-identically without reading
// the day, and a damaged partial file reads as a miss.
func TestPartialCacheRoundTrip(t *testing.T) {
	days := MonthDays(2014, time.April)[:4]
	store := buildWorldStore(t, 99, widthTestScale, days)
	var want [][]byte
	for _, width := range []int{1, 2, 8} {
		dir := t.TempDir()
		p := New(Config{Seed: 99, Scale: widthTestScale, Workers: 2, ShardsPerDay: width,
			Store: store, AggCacheDir: dir})
		aggs, err := p.Aggregate(context.Background(), days)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var parts, finals int
		for _, e := range entries {
			switch {
			case strings.HasPrefix(e.Name(), "parts-"):
				parts++
			case strings.HasPrefix(e.Name(), "agg-"):
				finals++
			}
		}
		if finals != len(days) || parts != 0 {
			t.Errorf("width %d: %d agg files and %d partial files for %d days, want one agg file per day",
				width, finals, parts, len(days))
		}
		got := canonicalAll(t, aggs)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("width %d: cached aggregates differ from width 1", width)
		}
	}

	// The ingester's form: partials saved per day, no final aggregate.
	// The replaying pipeline simulates a different world, so only the
	// partials can reproduce the cold simulated run's bytes.
	cfg := Config{Seed: 99, Scale: widthTestScale, Workers: 2}
	cold, err := New(cfg).Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	want = canonicalAll(t, cold)
	dir := t.TempDir()
	stor := NewDiskStorage(nil, dir)
	for _, day := range days {
		if err := stor.SavePartials(day, shardPartialsForDay(t, cfg, day)); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := cfg
	poisoned.Seed, poisoned.AggCacheDir = 12345, dir
	replayed, err := New(poisoned).Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalAll(t, replayed), want) {
		t.Error("partials saved through SavePartials replay differently from the cold run")
	}

	// A damaged partial file must read as a miss, not poison the run.
	if err := os.WriteFile(partialCachePath(dir, days[0]), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := cfg
	again.AggCacheDir = dir
	re, err := New(again).Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalAll(t, re), want) {
		t.Error("a damaged partial file changed the answer")
	}
}
