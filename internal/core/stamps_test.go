package core

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/metrics"
)

// Day stamps: what the day cache, the rollup memory tier and the
// response cache key on instead of one lake generation. These tests
// hold the stamp contract — strictly increasing per day across
// writers, damage always a miss — and the rollup tier's use of it.

// TestRollupMemoryTier: a long-lived pipeline reads each rollup window's
// file once, then answers from the rows it holds; a rewritten day sends
// exactly the window covering it back to storage, and what comes back
// equals a fresh pipeline's answer.
func TestRollupMemoryTier(t *testing.T) {
	days := colsEqDays()
	store := buildStoreFormat(t, t.TempDir(), flowrec.FormatV3, days)
	aggDir, rollupDir := t.TempDir(), t.TempDir()
	tiered := []string{"fig3", "fig8", "active"}
	runAllExperiments(t, NewDiskStorage(store, aggDir).WithRollupDir(rollupDir), aggDir, rollupDir, tiered...)

	ctx := context.Background()
	st := newCountingStorage(NewDiskStorage(store, aggDir).WithRollupDir(rollupDir))
	cfg := Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride, Workers: 4,
		Storage: st, AggCacheDir: aggDir, RollupDir: rollupDir}
	p := New(cfg)
	run := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			for _, id := range tiered {
				if err := Lookup0(id).Run(ctx, p, io.Discard); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
		}
	}
	run()
	if len(st.rollLoads) == 0 {
		t.Fatal("the tiered experiments loaded no rollup window")
	}
	for win, n := range st.rollLoads {
		if n != 1 {
			t.Errorf("window %s loaded %d times over two runs, want 1", win, n)
		}
	}

	// Rewrite one day inside a planned window with half its records.
	span := Lookup0("fig3").Days(colsEqStride)
	var win tierWindow
	for _, w := range planTiers(span) {
		if w.Grain != "" {
			win = w
			break
		}
	}
	if win.Grain == "" {
		t.Fatal("fig3's span plans no rollup window")
	}
	day := win.Days[0]
	var recs []flowrec.Record
	if err := st.ReadDayCols(day, flowrec.ColScan{}, func(r *flowrec.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDay(day, func(write func(*flowrec.Record) error) error {
		for i := 0; i < len(recs)/2; i++ {
			if err := write(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	builds := metrics.GetCounter("rollup.builds")
	builds0 := builds.Load()
	clear(st.rollLoads)
	run()
	key := string(win.Grain) + "-" + win.Start.Format("2006-01-02")
	for w, n := range st.rollLoads {
		if w != key {
			t.Errorf("window %s reloaded %d times after a rewrite outside it", w, n)
		}
	}
	if st.rollLoads[key] != 1 {
		t.Errorf("window %s covering the rewritten day loaded %d times, want 1", key, st.rollLoads[key])
	}
	if d := builds.Load() - builds0; d != 1 {
		t.Errorf("%d rollup windows rebuilt after one rewritten day, want 1", d)
	}

	got, err := p.DayStats(ctx, span)
	if err != nil {
		t.Fatal(err)
	}
	fresh := cfg
	fresh.Storage = NewDiskStorage(store, aggDir).WithRollupDir(rollupDir)
	want, err := New(fresh).DayStats(ctx, span)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the long-lived pipeline's DayStats differ from a fresh pipeline's after the rewrite")
	}
}

// TestDayStampsAcrossWriters: two storages over one agg dir, shaped like
// edged and edgeserve, bump distinct days concurrently while a third
// polls. Each day's stamp strictly increases on every bump, reads back
// through the other storage as what the bump returned, and never moves
// backwards under the poller; the generation stays at or above every
// stamp; no temp file survives. A damaged stamp file never reads as a
// cached stamp, not even as its own earlier damaged read.
func TestDayStampsAcrossWriters(t *testing.T) {
	aggDir := t.TempDir()
	edged, edgeserve, poller := NewDiskStorage(nil, aggDir), NewDiskStorage(nil, aggDir), NewDiskStorage(nil, aggDir)
	writers := []*DiskStorage{edged, edgeserve}
	days := make([]time.Time, 6)
	for i := range days {
		days[i] = date(2016, 4, 1+i)
	}
	const bumps = 40

	stop := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		last := make([]uint64, len(days))
		for {
			for i, d := range days {
				s := poller.DayStamp(d)
				if s < last[i] {
					t.Errorf("poller saw %s's stamp move back from %d to %d", d.Format("2006-01-02"), last[i], s)
				}
				last[i] = s
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for i, d := range days {
		w, other := writers[i%2], writers[(i+1)%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for n := 0; n < bumps; n++ {
				s := w.BumpDays(d)
				if s <= prev {
					t.Errorf("%s: bump %d drew stamp %d, previous %d", d.Format("2006-01-02"), n, s, prev)
				}
				if got := other.DayStamp(d); got != s {
					t.Errorf("%s: the other writer reads stamp %d, the bump drew %d", d.Format("2006-01-02"), got, s)
				}
				prev = s
			}
		}()
	}
	wg.Wait()
	close(stop)
	polled.Wait()

	gen := max(edged.Generation(), edgeserve.Generation())
	for _, d := range days {
		if s := poller.DayStamp(d); s > gen {
			t.Errorf("%s: stamp %d above the generation %d", d.Format("2006-01-02"), s, gen)
		}
	}
	for _, dir := range []string{aggDir, filepath.Join(aggDir, "stamps")} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if n := e.Name(); n != "generation" && n != "stamps" && len(n) != len("2006-01-02") {
				t.Errorf("%s left behind in %s", n, dir)
			}
		}
	}

	// Damage: truncated, extended, garbage and bad-checksum files.
	day := days[0]
	healthy := edged.DayStamp(day)
	path := edged.stampPath(day)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 1
	for name, b := range map[string][]byte{
		"truncated": good[:len(good)-3], "empty": nil, "extended": append(append([]byte(nil), good...), '\n'),
		"garbage": []byte("not a stamp file"), "bad checksum": flipped,
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		first, second := edgeserve.DayStamp(day), edgeserve.DayStamp(day)
		if first == healthy || second == healthy || first == second {
			t.Errorf("%s stamp file read as %d then %d (healthy was %d): damage must never match", name, first, second, healthy)
		}
	}
	if s := edged.BumpDays(day); s <= healthy || edgeserve.DayStamp(day) != s {
		t.Errorf("bump over a damaged stamp drew %d (healthy was %d), reads back %d", s, healthy, edgeserve.DayStamp(day))
	}
}
