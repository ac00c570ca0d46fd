package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/scan"
)

// The chaos matrix injects its faults above the codec (faultinject
// hands back ready-made ErrCorrupt errors), so these tests damage the
// bytes on disk instead and drive the codec's own damage signals — gzip
// truncation and checksums, a flate stream that stops parsing, a
// missing v3 terminator, a column CRC miss — through the degrade path.

// dayFilePath is where store dir keeps day's log.
func dayFilePath(dir string, day time.Time) string {
	return filepath.Join(dir, day.Format("2006"), day.Format("01"), "flows-"+day.Format("20060102")+".efl.gz")
}

// canonicalByDay runs a strict (non-degrading) pipeline over the store
// in dir and returns each day's canonical aggregate bytes.
func canonicalByDay(t *testing.T, dir string, days []time.Time) map[time.Time][]byte {
	t.Helper()
	store, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 2, Store: store})
	aggs, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if errs := p.DayErrors(); len(errs) != 0 {
		t.Fatalf("strict run reported day errors: %v", errs)
	}
	out := make(map[time.Time][]byte, len(aggs))
	for _, a := range aggs {
		if out[a.Day], err = analytics.CanonicalBytes(a); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRealDamageIsQuarantined: a day file that is physically damaged —
// in either format, by truncation, a flipped byte or being emptied —
// fails with ErrCorrupt, so a degrading pipeline reports it, moves it to
// quarantine and drops the rollups covering it; the next run reads an
// outage without touching the damage again; and the days that survive
// aggregate exactly as they do in the undamaged lake.
func TestRealDamageIsQuarantined(t *testing.T) {
	days := RangeDays(date(2016, 4, 4), date(2016, 4, 8), 1)
	victim := days[2]
	damages := []struct {
		name  string
		apply func([]byte) []byte
	}{
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"one byte flipped", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"zero length", func([]byte) []byte { return nil }},
	}
	mCorrupt := metrics.GetCounter("store.corrupt_records")

	for _, format := range []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3} {
		base := t.TempDir()
		buildChaosStore(t, base, format, days)
		want := canonicalByDay(t, base, days)
		if len(want) != len(days) {
			t.Fatalf("%s: undamaged lake aggregated %d of %d days", format, len(want), len(days))
		}
		delete(want, victim)

		for _, dmg := range damages {
			t.Run(format.String()+"/"+dmg.name, func(t *testing.T) {
				dir, rollDir := t.TempDir(), t.TempDir()
				copyTree(t, base, dir)
				path := dayFilePath(dir, victim)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, dmg.apply(data), 0o644); err != nil {
					t.Fatal(err)
				}
				// Stand-ins for the rollups that folded the victim.
				var rollups []string
				for _, g := range analytics.Grains() {
					rp := rollupCachePath(rollDir, g, analytics.WindowStart(g, victim))
					if err := os.WriteFile(rp, []byte("folded the damaged day"), 0o644); err != nil {
						t.Fatal(err)
					}
					rollups = append(rollups, rp)
				}

				store, err := flowrec.OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				corrupt0 := mCorrupt.Load()
				p := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 2,
					Store: store, RollupDir: rollDir, Degrade: true, Retry: chaosPolicy()})
				aggs, err := p.Aggregate(context.Background(), days)
				if err != nil {
					t.Fatal(err)
				}
				errs := p.DayErrors()
				if len(errs) != 1 || !errs[0].Day.Equal(victim) {
					t.Fatalf("day errors = %v, want exactly %s", errs, victim.Format("2006-01-02"))
				}
				if !errors.Is(errs[0].Err, flowrec.ErrCorrupt) {
					t.Errorf("damaged day failed with %v, want an error wrapping flowrec.ErrCorrupt", errs[0].Err)
				}
				if mCorrupt.Load() == corrupt0 {
					t.Error("store.corrupt_records did not advance")
				}
				if store.HasDay(victim) {
					t.Error("damaged day is still in the read path")
				}
				if _, err := os.Stat(filepath.Join(dir, ".quarantine", filepath.Base(path))); err != nil {
					t.Errorf("damaged day is not in quarantine: %v", err)
				}
				for _, rp := range rollups {
					if _, err := os.Stat(rp); !os.IsNotExist(err) {
						t.Errorf("rollup %s covering the damaged day was not invalidated", filepath.Base(rp))
					}
				}
				got := make(map[time.Time][]byte, len(aggs))
				for _, a := range aggs {
					if got[a.Day], err = analytics.CanonicalBytes(a); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("surviving days differ from the undamaged run (%d days, want %d)", len(got), len(want))
				}

				// The second run sees an outage, not the damage again.
				corrupt1 := mCorrupt.Load()
				if again := canonicalByDay(t, dir, days); !reflect.DeepEqual(again, want) {
					t.Errorf("rerun over the quarantined lake differs from the undamaged run (%d days, want %d)", len(again), len(want))
				}
				if mCorrupt.Load() != corrupt1 {
					t.Error("rerun tripped over the damage again: store.corrupt_records advanced")
				}
			})
		}
	}
}

// TestRetiredFormatDayIsRefusedNotQuarantined: a day still in format v2
// — a healthy gzip stream whose inner magic is "eflc" — is not damage.
// Reads fail with the error that names the retired format, a degrading
// pipeline reports the day but leaves the file where it is, and a scan
// lists it among its failed days.
func TestRetiredFormatDayIsRefusedNotQuarantined(t *testing.T) {
	days := RangeDays(date(2016, 4, 4), date(2016, 4, 6), 1)
	dir := t.TempDir()
	buildChaosStore(t, dir, flowrec.FormatV3, days)
	var v2 bytes.Buffer
	gz := gzip.NewWriter(&v2)
	gz.Write([]byte("eflc\x01block bytes no reader decodes any more"))
	gz.Close()
	if err := os.WriteFile(dayFilePath(dir, days[1]), v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	p := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 2,
		Store: store, Degrade: true, Retry: chaosPolicy()})
	aggs, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Errorf("%d days aggregated, want the 2 readable ones", len(aggs))
	}
	errs := p.DayErrors()
	if len(errs) != 1 || !errs[0].Day.Equal(days[1]) {
		t.Fatalf("day errors = %v, want exactly %s", errs, days[1].Format("2006-01-02"))
	}
	if err := errs[0].Err; !errors.Is(err, flowrec.ErrRetiredFormat) || errors.Is(err, flowrec.ErrCorrupt) {
		t.Errorf("v2 day failed with %v, want ErrRetiredFormat and not ErrCorrupt", err)
	}
	if !store.HasDay(days[1]) {
		t.Error("a healthy file in a retired format was quarantined")
	}

	res, err := scan.Run(context.Background(), store, p.Cls, scan.Query{Days: days})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{days[1].Format("2006-01-02")}; !reflect.DeepEqual(res.FailedDays, want) || res.ScannedDays != 2 {
		t.Errorf("scan: failed days %v over %d scanned, want %v over 2", res.FailedDays, res.ScannedDays, want)
	}
}
