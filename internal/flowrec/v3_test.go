package flowrec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
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

// TestV3StreamCutAfterLastByte: a column whose deflate stream stops
// right after its last output byte — the block's end code and the
// final block never arrive — is damage even with its crc recomputed to
// match. Every rawLen byte inflates, so only a decoder that requires
// the stream to reach its final block at exactly rawLen rejects it.
func TestV3StreamCutAfterLastByte(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, s, colTestDay, dayRecords(rand.New(rand.NewSource(36)), colTestDay, 2000))
	path := s.dayPath(colTestDay)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Walk to the first block's Tech column: magic, row count, eight
	// stats varints, column count, then (length, body) per column.
	p := 4
	uv := func() uint64 {
		v, n := binary.Uvarint(data[p:])
		if n <= 0 {
			t.Fatal("bad v3 framing")
		}
		p += n
		return v
	}
	for i := 0; i < 1+8+1; i++ {
		uv()
	}
	for c := 0; c < int(ColTech); c++ {
		p += int(uv())
	}
	lenAt := p
	size := int(uv())
	body, rest := data[p:p+size], data[p+size:]
	q := 4 // crc
	rawLen, n := binary.Uvarint(body[q:])
	q += n
	compLen, n := binary.Uvarint(body[q:])
	q += n
	if compLen == 0 {
		t.Fatal("Tech column stored raw: nothing to cut")
	}
	payload := body[q:]

	// The shortest prefix compress/flate still inflates to all rawLen
	// bytes.
	cut := -1
	for k := 1; k <= len(payload) && cut < 0; k++ {
		if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(payload[:k])), make([]byte, rawLen)); err == nil {
			cut = k
		}
	}
	if cut < 0 || cut == len(payload) {
		t.Fatalf("no cut short of the whole %d-byte stream (cut %d)", len(payload), cut)
	}

	nb := binary.AppendUvarint([]byte{0, 0, 0, 0}, rawLen)
	nb = binary.AppendUvarint(nb, uint64(cut))
	nb = append(nb, payload[:cut]...)
	binary.LittleEndian.PutUint32(nb, crc32.Checksum(nb[4:], crcTab))
	damaged := binary.AppendUvarint(bytes.Clone(data[:lenAt]), uint64(len(nb)))
	damaged = append(append(damaged, nb...), rest...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.ReadDay(colTestDay, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("column cut after its last byte: err = %v, want ErrCorrupt", err)
	}
}

// TestV3RowCountPastColumns: a block header may claim up to
// maxBlockRows rows, and the scan sizes the block's records by that
// count. A small damaged day whose header claims the maximum over
// crc-valid columns that cannot hold that many rows — empty stored
// payloads, or one-byte deflated payloads claiming a row a byte — must
// fail as ErrCorrupt before those records are allocated, not after
// 176 B a claimed row.
func TestV3RowCountPastColumns(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, s, colTestDay, dayRecords(rand.New(rand.NewSource(37)), colTestDay, 10))
	for _, tc := range []struct {
		name    string
		payload []byte // rawLen | compLen | bytes
	}{
		{"empty stored", []byte{0, 0}},
		{"deflated past its ratio", append(binary.AppendUvarint(nil, maxBlockRows), 1, 0)},
	} {
		// Magic, row count, eight zero stats, column count, then one
		// body per column: crc, [dict length], payload.
		data := binary.AppendUvarint([]byte("efl3"), maxBlockRows)
		data = append(data, make([]byte, 8)...)
		data = binary.AppendUvarint(data, uint64(NumColumns))
		for c := 0; c < NumColumns; c++ {
			body := []byte{0, 0, 0, 0}
			if dictSlot(Column(c)) >= 0 {
				body = append(body, 0)
			}
			body = append(body, tc.payload...)
			binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], crcTab))
			data = binary.AppendUvarint(data, uint64(len(body)))
			data = append(data, body...)
		}
		if err := os.WriteFile(s.dayPath(colTestDay), data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := s.ReadDayCols(colTestDay, ColScan{Workers: workers}, func(*Record) error { return nil })
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s, workers=%d: err = %v, want ErrCorrupt", tc.name, workers, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
				t.Errorf("%s, workers=%d: %d-byte day allocated %d bytes before failing", tc.name, workers, len(data), got)
			}
		}
	}
}
