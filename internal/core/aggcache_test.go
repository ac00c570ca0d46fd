package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

func TestAggCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	days := []time.Time{
		time.Date(2016, 4, 4, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 4, 5, 0, 0, 0, 0, time.UTC),
	}
	mk := func() *Pipeline {
		return New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 12, FTTH: 6}, Workers: 2, AggCacheDir: dir})
	}
	first, err := mk().Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("cache files = %d, want 2", len(entries))
	}

	// A second pipeline loads from disk; prove it by making the cache
	// the only possible source: poison the underlying store-less world
	// with a different seed. If the cache were ignored, the aggregates
	// would differ.
	poisoned := New(Config{Seed: 12345, Scale: simnet.Scale{ADSL: 12, FTTH: 6}, Workers: 2, AggCacheDir: dir})
	second, err := poisoned.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("lengths differ: %d vs %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Flows != second[i].Flows || first[i].TotalDown != second[i].TotalDown {
			t.Errorf("day %d recomputed instead of loaded: (%d,%d) vs (%d,%d)",
				i, second[i].Flows, second[i].TotalDown, first[i].Flows, first[i].TotalDown)
		}
		if !reflect.DeepEqual(first[i].ProtoBytes, second[i].ProtoBytes) {
			t.Errorf("day %d protocol bytes differ after cache round trip", i)
		}
	}
}

func TestAggCacheIgnoresDamage(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2016, 4, 6, 0, 0, 0, 0, time.UTC)
	p := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 2, AggCacheDir: dir})
	first, err := p.Aggregate(context.Background(), []time.Time{day})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the cache file; a fresh pipeline must recompute, not fail.
	path := aggCachePath(dir, day)
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 2, AggCacheDir: dir})
	second, err := p2.Aggregate(context.Background(), []time.Time{day})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Flows != first[0].Flows {
		t.Errorf("recomputed aggregate differs: %d vs %d", second[0].Flows, first[0].Flows)
	}
	// And the damaged file was replaced with a good one.
	if fi, err := os.Stat(path); err != nil || fi.Size() < 100 {
		t.Errorf("cache not rewritten after damage: %v", err)
	}
}

func TestAggCacheVersioning(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2016, 4, 7, 0, 0, 0, 0, time.UTC)
	// A file with the wrong version in its name is simply not found.
	stale := filepath.Join(dir, "agg-20160407-v3.gob.gz")
	if err := os.WriteFile(stale, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if agg := loadAgg(dir, day); agg != nil {
		t.Error("stale-version cache loaded")
	}
}
