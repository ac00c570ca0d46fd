package flowrec

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// v3 (per-block compression) tests: round-trip fidelity, the pushdown
// contract — skipped blocks are never inflated, so damage inside them
// is invisible to a selective scan — damage detection on consumed
// bytes, parallel decode ordering, and the compaction path that
// rewrites sealed days between formats.

func TestV3StoreRoundTrip(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Format() != FormatV3 {
		t.Fatalf("Format() = %v", s.Format())
	}
	// Straddle block boundaries: full blocks plus a short final one.
	want := dayRecords(rand.New(rand.NewSource(31)), colTestDay, 2*colBlockRows+123)
	writeDayRecords(t, s, colTestDay, want)

	var got []Record
	err = s.ReadDay(colTestDay, func(r *Record) error { // auto-detects v3
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestV3MixedLake: v1 and v3 days coexist in one directory and both
// read through one format-agnostic handle by per-file magic.
func TestV3MixedLake(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(32))
	days := make(map[Format]time.Time)
	recs := make(map[Format][]Record)
	for i, format := range []Format{FormatV1, FormatV3} {
		s, err := OpenStoreFormat(dir, format)
		if err != nil {
			t.Fatal(err)
		}
		day := colTestDay.AddDate(0, 0, i)
		days[format] = day
		recs[format] = dayRecords(rng, day, 300)
		writeDayRecords(t, s, day, recs[format])
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for format, day := range days {
		got := readAll(t, s, day, ColScan{})
		if !reflect.DeepEqual(got, recs[format]) {
			t.Errorf("%s day did not round-trip through the mixed lake", format)
		}
	}
}

// TestV3PushdownSkipsWithoutInflate is the point of the format: a
// Start-range predicate must skip excluded blocks on their plain-text
// stats without inflating their payloads. The proof is adversarial —
// corrupt a byte deep inside the first (excluded) block and the
// selective scan must still succeed, because bytes it never inflates
// are bytes it never checks; the full scan over the same file must
// fail loudly on the damage.
func TestV3PushdownSkipsWithoutInflate(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	recs := dayRecords(rand.New(rand.NewSource(33)), colTestDay, 2*colBlockRows+1000)
	writeDayRecords(t, s, colTestDay, recs)

	pred := &Pred{StartMin: colTestDay.Add(23 * time.Hour)}
	var want []Record
	for i := range recs {
		if pred.Match(&recs[i]) {
			want = append(want, recs[i])
		}
	}
	if len(want) == 0 || len(want) == len(recs) {
		t.Fatalf("degenerate predicate: %d of %d match", len(want), len(recs))
	}

	// Flip a byte well inside the first block's column payloads. The
	// offset is far past the magic and block header but a small
	// fraction of the first block's footprint, so it lands in payload
	// bytes, not framing.
	path := s.dayPath(colTestDay)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10_000] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	skipped0, pruned0 := mBlocksSkipped.Load(), mBytesPruned.Load()
	got := readAll(t, s, colTestDay, ColScan{Pred: pred})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 predicate scan: %d records, want %d (or content mismatch)", len(got), len(want))
	}
	if d := mBlocksSkipped.Load() - skipped0; d < 2 {
		t.Errorf("blocks_skipped advanced by %d, want >= 2 (records are time-ordered)", d)
	}
	if mBytesPruned.Load() == pruned0 {
		t.Error("pruned_bytes did not advance on a pushdown scan")
	}

	// The same damage is fatal to a scan that consumes the block.
	corrupt0 := mCorruptRecords.Load()
	err = s.ReadDay(colTestDay, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full scan over damaged block: err = %v, want ErrCorrupt", err)
	}
	if mCorruptRecords.Load() == corrupt0 {
		t.Error("corrupt_records did not advance")
	}
}

// TestV3ParallelOrder: any worker count delivers the same records in
// the same order as the serial scan — the reorder buffer applies to
// per-block inflation too.
func TestV3ParallelOrder(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	recs := dayRecords(rand.New(rand.NewSource(34)), colTestDay, 3*colBlockRows+77)
	writeDayRecords(t, s, colTestDay, recs)

	serial := readAll(t, s, colTestDay, ColScan{Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		par := readAll(t, s, colTestDay, ColScan{Workers: workers})
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d delivered different records or order", workers)
		}
	}
}

// TestV3DamagedFileFailsLoudly: truncation anywhere — mid-block, mid-
// terminator, or cleanly at a block boundary (where v1 relies on the
// gzip trailer) — and corruption of consumed bytes surface as
// errors wrapping ErrCorrupt (the quarantine signal), never as silently
// short record streams.
func TestV3DamagedFileFailsLoudly(t *testing.T) {
	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"truncated mid-block", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated terminator", func(b []byte) []byte { return b[:len(b)-2] }},
		{"payload bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"trailing data", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStoreFormat(t.TempDir(), FormatV3)
			if err != nil {
				t.Fatal(err)
			}
			writeDayRecords(t, s, colTestDay, dayRecords(rand.New(rand.NewSource(35)), colTestDay, 2000))
			path := s.dayPath(colTestDay)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			read0, corrupt0 := mDaysRead.Load(), mCorruptRecords.Load()
			err = s.ReadDay(colTestDay, func(*Record) error { return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged v3 log: err = %v, want ErrCorrupt", err)
			}
			if mDaysRead.Load() != read0 {
				t.Error("days_read advanced on a failed read")
			}
			if mCorruptRecords.Load() == corrupt0 {
				t.Error("corrupt_records did not advance")
			}
		})
	}
}

// TestCompactDay: compaction rewrites a sealed day into another format
// with the logical record stream unchanged, atomically, in both
// directions.
func TestCompactDay(t *testing.T) {
	pairs := []struct{ from, to Format }{
		{FormatV1, FormatV3},
		{FormatV3, FormatV1},
	}
	for _, pair := range pairs {
		t.Run(pair.from.String()+"_to_"+pair.to.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStoreFormat(dir, pair.from)
			if err != nil {
				t.Fatal(err)
			}
			want := dayRecords(rand.New(rand.NewSource(36)), colTestDay, colBlockRows+500)
			writeDayRecords(t, s, colTestDay, want)

			days0, bytes0 := mCompactedDays.Load(), mCompactedBytes.Load()
			n, err := s.CompactDay(colTestDay, pair.to)
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(want)) {
				t.Fatalf("compacted %d records, want %d", n, len(want))
			}
			if mCompactedDays.Load() != days0+1 {
				t.Error("compacted_days did not advance")
			}
			if mCompactedBytes.Load() == bytes0 {
				t.Error("compacted_bytes did not advance")
			}

			got := readAll(t, s, colTestDay, ColScan{})
			if !reflect.DeepEqual(got, want) {
				t.Fatal("compacted day does not match the original records")
			}
		})
	}

	t.Run("missing day", func(t *testing.T) {
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompactDay(colTestDay, FormatV3); !errors.Is(err, ErrNoDay) {
			t.Fatalf("err = %v, want ErrNoDay", err)
		}
	})
}

// TestCompactStore: the parallel sweep rewrites every listed day and
// totals records; reads after compaction are unchanged.
func TestCompactStore(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	const nDays = 5
	want := make(map[time.Time][]Record, nDays)
	var days []time.Time
	var total uint64
	for i := 0; i < nDays; i++ {
		day := colTestDay.AddDate(0, 0, i)
		recs := dayRecords(rng, day, 200+50*i)
		writeDayRecords(t, s, day, recs)
		want[day] = recs
		days = append(days, day)
		total += uint64(len(recs))
	}

	nd, nr, err := s.CompactStore(days, FormatV3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nd != nDays || nr != total {
		t.Fatalf("compacted %d days / %d records, want %d / %d", nd, nr, nDays, total)
	}
	for day, recs := range want {
		if got := readAll(t, s, day, ColScan{}); !reflect.DeepEqual(got, recs) {
			t.Errorf("day %s changed across compaction", day.Format("2006-01-02"))
		}
	}
}
