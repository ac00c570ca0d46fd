package core

// Merge-equivalence at the pipeline level: every experiment of the
// paper registry must render byte-identical reports whatever
// ShardsPerDay is, and the shard-partial cache must replay a day
// byte-identically to the run that wrote it.

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/simnet"
)

// shardTestConfig is the smallest population that still exercises
// every figure, on a sparse stride so the full registry stays fast.
func shardTestConfig(shards int) Config {
	return Config{
		Seed: 99, Scale: simnet.Scale{ADSL: 10, FTTH: 5},
		Stride: 180, Workers: 2, ShardsPerDay: shards,
	}
}

// TestShardEquivalenceAllExperiments renders every experiment in
// Experiments() at 1 and 3 shards per day and byte-compares the
// reports — the acceptance property of the merge monoid: sharding is
// invisible in every table and figure.
func TestShardEquivalenceAllExperiments(t *testing.T) {
	p1 := New(shardTestConfig(1))
	p3 := New(shardTestConfig(3))
	for _, e := range Experiments() {
		var b1, b3 bytes.Buffer
		if err := e.Run(context.Background(), p1, &b1); err != nil {
			t.Fatalf("%s (1 shard): %v", e.ID, err)
		}
		if err := e.Run(context.Background(), p3, &b3); err != nil {
			t.Fatalf("%s (3 shards): %v", e.ID, err)
		}
		if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
			t.Errorf("%s: report differs between 1 and 3 shards per day", e.ID)
		}
	}
}

// TestShardEquivalenceAggregates compares the aggregates themselves
// (canonical bytes, stronger than rendered text) across shard counts.
func TestShardEquivalenceAggregates(t *testing.T) {
	days := MonthDays(2017, time.April)[:6]
	p1 := New(shardTestConfig(1))
	p4 := New(shardTestConfig(4))
	a1, err := p1.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := p4.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a4) {
		t.Fatalf("day counts differ: %d vs %d", len(a1), len(a4))
	}
	for i := range a1 {
		b1, err := analytics.CanonicalBytes(a1[i])
		if err != nil {
			t.Fatal(err)
		}
		b4, err := analytics.CanonicalBytes(a4[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b4) {
			t.Errorf("%s: 4-shard aggregate differs from serial fold", a1[i].Day.Format("2006-01-02"))
		}
	}
}

// TestPartialCacheRoundTrip: a sharded cached run persists per-day
// shard partials; a later pipeline (even one running serial folds)
// must replay them into byte-identical aggregates without re-reading
// the days.
func TestPartialCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	days := MonthDays(2014, time.April)[:4]

	cfg := shardTestConfig(3)
	cfg.AggCacheDir = dir
	warm := New(cfg)
	want, err := warm.Aggregate(context.Background(), days)
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
	if parts != len(days) {
		t.Fatalf("%d partial files for %d days (finals: %d)", parts, len(days), finals)
	}
	if finals != 0 {
		t.Errorf("%d final agg files written alongside partials", finals)
	}

	// Replay with a serial-fold pipeline over the same cache dir.
	cold := shardTestConfig(1)
	cold.AggCacheDir = dir
	replay := New(cold)
	got, err := replay.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d days, want %d", len(got), len(want))
	}
	for i := range want {
		wb, err := analytics.CanonicalBytes(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := analytics.CanonicalBytes(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("%s: cached-partial replay differs", want[i].Day.Format("2006-01-02"))
		}
	}

	// A damaged partial file must read as a miss, not poison the run.
	if err := os.WriteFile(partialCachePath(dir, days[0]), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := shardTestConfig(2)
	again.AggCacheDir = dir
	p := New(again)
	re, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != len(days) {
		t.Fatalf("damaged partial file lost days: %d of %d", len(re), len(days))
	}
}
