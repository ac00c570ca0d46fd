package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/simnet"
)

// The ingest daemon writes through its own slice of the storage
// surface; every core.Storage, fault wrapper included, must be one.
var _ ingest.Storage = Storage(nil)

// TestDerivedFilesRejectDamage: every kind of derived file — day
// aggregate, shard partials, rollup, ingest cursor — with one bit
// flipped or its tail cut off loads as a value its writer saved or as
// nothing: a miss for the caches and the cursor. Never as a different
// value. Damage is placed by sample index, and subtests are named by
// it, not by byte offset: gob writes maps in random order, so the bytes
// at an offset change from run to run.
func TestDerivedFilesRejectDamage(t *testing.T) {
	const flips, cuts = 40, 10
	dir := t.TempDir()
	parts := chunkPartials(t, 3)
	agg, err := analytics.MergePartials(framesDay, parts)
	if err != nil {
		t.Fatal(err)
	}
	week := analytics.WindowStart(analytics.GrainWeek, framesDay)
	roll, err := analytics.BuildRollup(analytics.GrainWeek, week, []time.Time{framesDay}, []*analytics.DayAgg{agg})
	if err != nil {
		t.Fatal(err)
	}
	canon := func(a *analytics.DayAgg) string {
		b, err := analytics.CanonicalBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rollPrint := func(r *analytics.Rollup) string {
		return fmt.Sprintf("%v|%v|%v|%v|%v", r.Grain, r.Start, r.Requested, r.SourceDays, r.Stats)
	}
	cursorCfg, resume := cursorFixture(t, filepath.Join(dir, "live"))

	// Each kind's load returns what the file reads as, "" for nothing;
	// want lists what a load may read, the whole file's value last.
	kinds := []struct {
		name string
		path string
		save func() error
		load func() string
		want []string
	}{
		{
			name: "agg", path: aggCachePath(dir, framesDay),
			save: func() error { return saveAgg(dir, agg) },
			load: func() string {
				if a := loadAgg(dir, framesDay); a != nil {
					return canon(a)
				}
				return ""
			},
			want: []string{canon(agg)},
		},
		{
			// A base frame and two deltas: a load may stop at any frame.
			name: "partials", path: partialCachePath(dir, framesDay),
			save: func() error {
				if err := savePartials(dir, framesDay, parts[:1]); err != nil {
					return err
				}
				for _, p := range parts[1:] {
					if err := appendPartial(dir, framesDay, p); err != nil {
						return err
					}
				}
				return nil
			},
			load: func() string {
				if got := loadPartials(dir, framesDay); got != nil {
					return string(canonOf(t, got))
				}
				return ""
			},
			want: []string{string(canonOf(t, parts[:1])), string(canonOf(t, parts[:2])), string(canonOf(t, parts))},
		},
		{
			name: "rollup", path: rollupCachePath(dir, analytics.GrainWeek, week),
			save: func() error { return saveRollup(dir, roll) },
			load: func() string {
				if r := loadRollup(dir, analytics.GrainWeek, week); r != nil {
					return rollPrint(r)
				}
				return ""
			},
			want: []string{rollPrint(roll)},
		},
		{
			// The ingester wrote its cursor as it closed; a fresh one
			// reads it back as where to resume.
			name: "cursor", path: cursorFile(t, cursorCfg.WALDir),
			save: func() error { return nil },
			load: func() string {
				in, err := ingest.Open(cursorCfg)
				if err != nil {
					t.Fatal(err)
				}
				if in.Resume() == 0 {
					return ""
				}
				return fmt.Sprint(in.Resume())
			},
			want: []string{fmt.Sprint(resume)},
		},
	}

	for _, k := range kinds {
		if err := k.save(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(k.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.load(); got != k.want[len(k.want)-1] {
			t.Fatalf("%s: the undamaged file does not load as the value saved", k.name)
		}
		check := func(t *testing.T, b []byte) {
			if err := os.WriteFile(k.path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := k.load(); got != "" && !slices.Contains(k.want, got) {
				t.Fatalf("damaged %s file loaded a value its writer never saved", k.name)
			}
		}
		t.Run(k.name, func(t *testing.T) {
			for i := range flips {
				t.Run(fmt.Sprintf("flip-%02d", i), func(t *testing.T) {
					bad := bytes.Clone(data)
					bad[i*len(data)/flips] ^= 1 << (i % 8)
					check(t, bad)
				})
			}
			for i := range cuts {
				t.Run(fmt.Sprintf("cut-%02d", i), func(t *testing.T) {
					check(t, data[:i*len(data)/cuts])
				})
			}
		})
	}
}

// cursorFixture streams one small day through an ingester into a lake
// under dir, seals it and closes, so the WAL directory holds the
// resume cursor alone. It returns the ingester's config and the
// stream position the cursor records.
func cursorFixture(t *testing.T, dir string) (ingest.Config, uint64) {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.Config{Storage: NewDiskStorage(store, filepath.Join(dir, "agg")), WALDir: filepath.Join(dir, "wal")}
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var n uint64
	simnet.NewWorld(5, simnet.Scale{ADSL: 1, FTTH: 1}).EmitDay(framesDay, func(r *flowrec.Record) {
		if err := in.Ingest(ctx, r, framesDay.Add(12*time.Hour)); err != nil {
			t.Fatal(err)
		}
		n++
	})
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("the fixture day has no records")
	}
	return cfg, n
}

// cursorFile returns the one file a drained WAL directory holds.
func cursorFile(t *testing.T, walDir string) string {
	t.Helper()
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].IsDir() {
		t.Fatalf("a drained WAL directory holds %v, want the cursor alone", ents)
	}
	return filepath.Join(walDir, ents[0].Name())
}
