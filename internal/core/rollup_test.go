package core

// Rollup-equivalence test tier (see TESTING.md): figures answered from
// the rollup tier must be byte-identical to the exact flat day fold in
// exact mode, rollup files must behave as a cache (hit on re-query,
// rebuild on manifest mismatch), and a changed day — rewrite or
// quarantine — must invalidate every covering window.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

func TestPlanTiers(t *testing.T) {
	days := func(start string, n int) []time.Time {
		d, _ := time.Parse("2006-01-02", start)
		out := make([]time.Time, n)
		for i := range out {
			out[i] = d.AddDate(0, 0, i)
		}
		return out
	}

	// A full calendar year collapses to one year window.
	year := days("2016-01-01", 366)
	wins := planTiers(year)
	if len(wins) != 1 || wins[0].Grain != analytics.GrainYear || len(wins[0].Days) != 366 {
		t.Fatalf("full year planned as %d windows, first grain %q", len(wins), wins[0].Grain)
	}

	// A mid-month run: one interior week, day-tier edges.
	wins = planTiers(days("2016-06-03", 10)) // Fri Jun 3 … Sun Jun 12
	var weekDays, dayDays int
	for _, w := range wins {
		switch w.Grain {
		case analytics.GrainWeek:
			weekDays += len(w.Days)
			if !w.Start.Equal(time.Date(2016, 6, 6, 0, 0, 0, 0, time.UTC)) {
				t.Errorf("week window start %v, want 2016-06-06", w.Start)
			}
		case "":
			dayDays += len(w.Days)
		default:
			t.Errorf("unexpected grain %q for a 10-day run", w.Grain)
		}
	}
	if weekDays != 7 || dayDays != 3 {
		t.Errorf("mid-month run: %d week-tier + %d day-tier days, want 7+3", weekDays, dayDays)
	}

	// Every requested day lands in exactly one window, in order.
	req := days("2016-03-15", 70)
	wins = planTiers(req)
	seen := make(map[time.Time]int)
	for _, w := range wins {
		for _, d := range w.Days {
			seen[d]++
		}
	}
	if len(seen) != len(req) {
		t.Fatalf("plan covers %d distinct days, want %d", len(seen), len(req))
	}
	for d, n := range seen {
		if n != 1 {
			t.Errorf("day %v planned %d times", d, n)
		}
	}
	for i := 1; i < len(wins); i++ {
		if wins[i].Start.Before(wins[i-1].Start) {
			t.Error("windows not sorted by start")
		}
	}
	// The interior month (April) must have been promoted above weeks.
	foundMonth := false
	for _, w := range wins {
		if w.Grain == analytics.GrainMonth && w.Start.Month() == time.April {
			foundMonth = true
			if len(w.Days) != 30 {
				t.Errorf("April window has %d days, want 30", len(w.Days))
			}
		}
	}
	if !foundMonth {
		t.Error("interior April was not promoted to a month window")
	}

	if wins := planTiers(nil); wins != nil {
		t.Errorf("planTiers(nil) = %v", wins)
	}
}

// TestRollupTierGoldenIdentity renders the three tier-served
// experiments (active, fig3, fig8) with and without the rollup tier at
// the golden corpus config: the outputs must be byte-identical, and the
// second rollup-tier pipeline must answer from persisted windows.
func TestRollupTierGoldenIdentity(t *testing.T) {
	dir := t.TempDir()
	cfgR := goldenConfig()
	cfgR.RollupDir = dir

	mHits, mBuilds := metrics.GetCounter("rollup.hits"), metrics.GetCounter("rollup.builds")
	for _, id := range []string{"active", "fig3", "fig8"} {
		e := mustLookup(t, id)
		var exact, tiered, rerun bytes.Buffer
		if err := e.Run(context.Background(), New(goldenConfig()), &exact); err != nil {
			t.Fatalf("%s exact: %v", id, err)
		}
		builds0 := mBuilds.Load()
		if err := e.Run(context.Background(), New(cfgR), &tiered); err != nil {
			t.Fatalf("%s tiered: %v", id, err)
		}
		if !bytes.Equal(exact.Bytes(), tiered.Bytes()) {
			t.Errorf("%s: rollup-tier output diverges from the exact day fold", id)
		}
		if id == "fig3" && mBuilds.Load() == builds0 {
			t.Errorf("%s: tiered run built no rollups (tier never engaged)", id)
		}
		// A fresh pipeline over the same rollup dir must hit, not rebuild.
		hits0, builds1 := mHits.Load(), mBuilds.Load()
		if err := e.Run(context.Background(), New(cfgR), &rerun); err != nil {
			t.Fatalf("%s rerun: %v", id, err)
		}
		if !bytes.Equal(exact.Bytes(), rerun.Bytes()) {
			t.Errorf("%s: warm rollup-tier output diverges", id)
		}
		if mHits.Load() == hits0 {
			t.Errorf("%s: warm rerun never hit a persisted rollup", id)
		}
		if mBuilds.Load() != builds1 {
			t.Errorf("%s: warm rerun rebuilt rollups instead of hitting", id)
		}
	}
}

// rollupTestConfig is a small store-backed pipeline over one June 2016
// week plus day-tier edges.
func rollupTestDays() []time.Time {
	return RangeDays(
		time.Date(2016, 6, 3, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 6, 12, 0, 0, 0, 0, time.UTC), 1)
}

func buildRollupStore(t *testing.T, dir string) *flowrec.Store {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(dir, flowrec.FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Config{Seed: 11, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 4})
	if _, err := gen.GenerateStore(context.Background(), NewDiskStorage(store, ""), rollupTestDays()); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRollupInvalidationOnWriteDay: rewriting a day through DiskStorage
// must drop its aggregate cache, shard partials and every covering
// rollup file, and the next query must rebuild and reflect the new
// bytes; quarantining the day drops the covering rollups as well.
func TestRollupInvalidationOnWriteDay(t *testing.T) {
	storeDir, aggDir, rollDir := t.TempDir(), t.TempDir(), t.TempDir()
	store := buildRollupStore(t, storeDir)
	// A second full week in the store gives the invalidation a
	// control: its window does not cover the rewritten day, so its
	// rollup file must survive while the covering one drops.
	week2 := RangeDays(time.Date(2016, 6, 13, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 6, 19, 0, 0, 0, 0, time.UTC), 1)
	gen := New(Config{Seed: 11, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 4})
	if _, err := gen.GenerateStore(context.Background(), NewDiskStorage(store, ""), week2); err != nil {
		t.Fatal(err)
	}
	days := append(rollupTestDays(), week2...)
	mid := time.Date(2016, 6, 8, 0, 0, 0, 0, time.UTC) // inside the first week window

	cfg := Config{Seed: 11, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 4,
		Store: store, AggCacheDir: aggDir, RollupDir: rollDir}
	p := New(cfg)
	rows, err := p.DayStats(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(days) {
		t.Fatalf("DayStats returned %d rows, want %d", len(rows), len(days))
	}
	weekFile := rollupCachePath(rollDir, analytics.GrainWeek, analytics.WindowStart(analytics.GrainWeek, mid))
	if _, err := os.Stat(weekFile); err != nil {
		t.Fatalf("week rollup not persisted: %v", err)
	}
	otherWeekFile := rollupCachePath(rollDir, analytics.GrainWeek,
		analytics.WindowStart(analytics.GrainWeek, week2[0]))
	if _, err := os.Stat(otherWeekFile); err != nil {
		t.Fatalf("second week rollup not persisted: %v", err)
	}

	// Rewrite the covered day with a single tiny record.
	ds := NewDiskStorage(store, aggDir).WithRollupDir(rollDir)
	one := flowrec.Record{Start: mid.Add(time.Hour), Proto: flowrec.ProtoTCP,
		Tech: flowrec.TechADSL, SubID: 1, BytesDown: 1 << 20, BytesUp: 1 << 10, PktsUp: 1, PktsDown: 1}
	if _, err := ds.WriteDay(mid, func(write func(*flowrec.Record) error) error {
		return write(&one)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(weekFile); !os.IsNotExist(err) {
		t.Fatalf("covering week rollup survived the rewrite (err=%v)", err)
	}
	if _, err := os.Stat(aggCachePath(aggDir, mid)); !os.IsNotExist(err) {
		t.Fatalf("day aggregate cache survived the rewrite (err=%v)", err)
	}
	// Invalidation fires exactly for covering windows: the untouched
	// week's rollup is still on disk.
	if _, err := os.Stat(otherWeekFile); err != nil {
		t.Fatalf("non-covering week rollup was dropped by the rewrite: %v", err)
	}

	// A fresh pipeline must rebuild the window and see the new bytes.
	p2 := New(cfg)
	rows2, err := p2.DayStats(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range rows2 {
		if r.Day.Equal(mid) {
			found = true
			if r.Flows != 1 {
				t.Errorf("rewritten day shows %d flows in the rebuilt rollup, want 1", r.Flows)
			}
		}
	}
	if !found {
		t.Error("rewritten day missing from rebuilt rollup stats")
	}
	if _, err := os.Stat(weekFile); err != nil {
		t.Errorf("week rollup not rebuilt: %v", err)
	}

	// Quarantine alone drops every covering window too. The span holds
	// no whole month or year, so those windows' files are planted.
	covering := []string{weekFile}
	for _, g := range []analytics.Grain{analytics.GrainMonth, analytics.GrainYear} {
		path := rollupCachePath(rollDir, g, analytics.WindowStart(g, mid))
		if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		covering = append(covering, path)
	}
	if err := ds.QuarantineDay(mid); err != nil {
		t.Fatal(err)
	}
	for _, path := range covering {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("covering rollup %s survived the quarantine (err=%v)", filepath.Base(path), err)
		}
	}
	if _, err := os.Stat(otherWeekFile); err != nil {
		t.Errorf("non-covering week rollup was dropped by the quarantine: %v", err)
	}
}

// TestRollupManifestMismatchRebuilds: a persisted window only answers
// the exact requested-day grid it was built from; a different grid
// rebuilds rather than serving the wrong day set.
func TestRollupManifestMismatchRebuilds(t *testing.T) {
	storeDir, rollDir := t.TempDir(), t.TempDir()
	store := buildRollupStore(t, storeDir)
	cfg := Config{Seed: 11, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 4,
		Store: store, RollupDir: rollDir}
	week := RangeDays(time.Date(2016, 6, 6, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 6, 12, 0, 0, 0, 0, time.UTC), 1)

	if _, err := New(cfg).DayStats(context.Background(), week); err != nil {
		t.Fatal(err)
	}
	// Same window, stride-2 grid: 4 of the 7 days.
	strided := RangeDays(week[0], week[6], 2)
	mBuilds := metrics.GetCounter("rollup.builds")
	builds0 := mBuilds.Load()
	rows, err := New(cfg).DayStats(context.Background(), strided)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(strided) {
		t.Fatalf("strided query got %d rows, want %d", len(rows), len(strided))
	}
	for i, r := range rows {
		if !r.Day.Equal(strided[i]) {
			t.Errorf("row %d is %v, want %v (full-grid rollup leaked into a strided query)", i, r.Day, strided[i])
		}
	}
	if mBuilds.Load() == builds0 {
		t.Error("manifest mismatch did not trigger a rebuild")
	}
}

// TestHotDayRollupNotPersisted: a week whose Wednesday is still live —
// no day file, answered from the ingester's checkpoint — must not leave
// a rollup file behind. The next checkpoint moves the day's stamp but
// not the rollup directory, so a persisted window would keep serving
// the old rows to the long-lived pipeline and to a fresh one alike.
func TestHotDayRollupNotPersisted(t *testing.T) {
	ctx := context.Background()
	week := RangeDays(time.Date(2016, 5, 2, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 5, 8, 0, 0, 0, 0, time.UTC), 1)
	hot := week[2]
	scale := simnet.Scale{ADSL: 8, FTTH: 4}
	store, err := flowrec.OpenStoreFormat(t.TempDir(), flowrec.FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	sealed := append(append([]time.Time(nil), week[:2]...), week[3:]...)
	if _, err := New(Config{Seed: 11, Scale: scale, Workers: 4}).GenerateStore(ctx, NewDiskStorage(store, ""), sealed); err != nil {
		t.Fatal(err)
	}
	aggDir, rollDir := t.TempDir(), t.TempDir()
	cfg := Config{Seed: 11, Scale: scale, Workers: 4, Store: store, AggCacheDir: aggDir, RollupDir: rollDir}
	p := New(cfg)

	// The ingester's side: a base checkpoint of the first half of the
	// hot day's records, later a delta with the rest.
	var recs []flowrec.Record
	simnet.NewWorld(11, scale).EmitDay(hot, func(r *flowrec.Record) { recs = append(recs, *r) })
	partial := func(recs []flowrec.Record) *analytics.Partial {
		a := analytics.NewAggregator(hot, p.Cls)
		for i := range recs {
			a.Add(&recs[i])
		}
		return a.Partial()
	}
	full := analytics.NewAggregator(hot, p.Cls)
	for i := range recs {
		full.Add(&recs[i])
	}
	want := analytics.NewDayStat(full.Result())
	edged := NewDiskStorage(store, aggDir)
	if err := edged.SavePartials(hot, []*analytics.Partial{partial(recs[:len(recs)/2])}); err != nil {
		t.Fatal(err)
	}
	edged.BumpDays(hot)

	hotRow := func(p *Pipeline) analytics.DayStat {
		t.Helper()
		rows, err := p.DayStats(ctx, week)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Day.Equal(hot) {
				return r
			}
		}
		t.Fatal("the hot day is missing from the week's rows")
		return analytics.DayStat{}
	}
	if got := hotRow(p); got.Flows == 0 || got.Flows >= want.Flows {
		t.Fatalf("before the delta the hot day shows %d flows, want a part of %d", got.Flows, want.Flows)
	}
	if _, err := os.Stat(rollupCachePath(rollDir, analytics.GrainWeek, week[0])); !os.IsNotExist(err) {
		t.Errorf("a window over a hot day was persisted (stat err=%v)", err)
	}

	if err := edged.AppendPartial(hot, partial(recs[len(recs)/2:])); err != nil {
		t.Fatal(err)
	}
	edged.BumpDays(hot)
	for name, q := range map[string]*Pipeline{"long-lived": p, "fresh": New(cfg)} {
		if got := hotRow(q); got.Flows != want.Flows || got.Observed != want.Observed {
			t.Errorf("%s pipeline after the delta: hot day flows %d observed %v, want %d %v",
				name, got.Flows, got.Observed, want.Flows, want.Observed)
		}
	}
}

// TestChaosRollupRefresh is the corrupt → degrade → repair → refresh
// chaos case: a corrupting run quarantines days and builds a degraded
// rollup; repairing the days (rewriting them) must invalidate the
// covering windows so the next query recomputes the clean answer
// instead of serving the degraded merge.
func TestChaosRollupRefresh(t *testing.T) {
	days := MonthDays(2016, time.April)
	storeDir, rollDir := t.TempDir(), t.TempDir()
	buildChaosStore(t, storeDir, flowrec.FormatV3, days)

	// The clean answer, from a flat exact fold (no rollups involved).
	cleanStore, err := flowrec.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	pClean := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: cleanStore})
	want, err := pClean.MonthlySeriesTier(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupting run through the rollup tier: days quarantine away and
	// the persisted month window is a degraded merge of the survivors.
	badStore, err := flowrec.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse("readday:p=0.3,truncate")
	if err != nil {
		t.Fatal(err)
	}
	pBad := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: badStore,
		RollupDir: rollDir, Degrade: true, Faults: plan, Retry: chaosPolicy()})
	degraded, err := pBad.MonthlySeriesTier(context.Background(), days)
	if err != nil {
		t.Fatalf("degraded tier query: %v", err)
	}
	errs := pBad.DayErrors()
	if len(errs) == 0 {
		t.Fatal("corrupting run produced no day errors; nothing to repair")
	}
	if reflect.DeepEqual(degraded, want) {
		t.Fatal("degraded rollup unexpectedly equals the clean answer; corruption never bit")
	}
	monthFile := rollupCachePath(rollDir, analytics.GrainMonth, days[0])
	if _, err := os.Stat(monthFile); err != nil {
		t.Fatalf("degraded month rollup not persisted: %v", err)
	}

	// Repair: regenerate the quarantined days from the (deterministic)
	// source into the same lake. WriteDay drops the stale rollup.
	repairStore, err := flowrec.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var lost []time.Time
	for _, de := range errs {
		lost = append(lost, de.Day)
	}
	gen := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4})
	if _, err := gen.GenerateStore(context.Background(),
		NewDiskStorage(repairStore, "").WithRollupDir(rollDir), lost); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(monthFile); !os.IsNotExist(err) {
		t.Fatalf("repair did not invalidate the covering month rollup (err=%v)", err)
	}

	// Refresh: a clean pipeline over the repaired lake must rebuild the
	// window and reproduce the clean answer exactly.
	freshStore, err := flowrec.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	pFresh := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: freshStore,
		RollupDir: rollDir})
	got, err := pFresh.MonthlySeriesTier(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("refreshed rollup differs from the clean answer:\n got %+v\nwant %+v", got, want)
	}
	if len(pFresh.DayErrors()) != 0 {
		t.Errorf("refresh reported day errors: %v", pFresh.DayErrors())
	}
	if _, err := os.Stat(monthFile); err != nil {
		t.Fatalf("refreshed month rollup not persisted: %v", err)
	}

	// A quarantine on its own drops the windows covering the day: with
	// the refreshed month window on disk, moving a healthy day of it out
	// of the read path must leave no week, month or year rollup that
	// covers the day.
	if err := NewDiskStorage(freshStore, "").WithRollupDir(rollDir).QuarantineDay(days[0]); err != nil {
		t.Fatal(err)
	}
	for _, g := range analytics.Grains() {
		path := rollupCachePath(rollDir, g, analytics.WindowStart(g, days[0]))
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("quarantining %s left the covering %s rollup (stat err=%v)", days[0].Format("2006-01-02"), g, err)
		}
	}
}
