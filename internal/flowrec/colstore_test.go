package flowrec

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Columnar read-contract tests: format auto-detection, column pruning,
// predicate pushdown (block skipping), parallel decode ordering,
// callback errors and read metrics — what ReadDayCols promises. The v3
// format's own round-trip and damage tests are in v3_test.go.

var colTestDay = time.Date(2016, 11, 12, 0, 0, 0, 0, time.UTC)

// dayRecords draws n random records pinned inside day, with Start
// increasing — the natural order a probe writes, which is what makes
// per-block Start stats selective. Starts are millisecond-granular,
// the codecs' wire precision.
func dayRecords(rng *rand.Rand, day time.Time, n int) []Record {
	recs := make([]Record, n)
	stepMs := (24 * time.Hour).Milliseconds() / int64(n+1)
	for i := range recs {
		recs[i] = randomRecord(rng)
		recs[i].Start = day.Add(time.Duration(int64(i)*stepMs+rng.Int63n(stepMs)) * time.Millisecond)
	}
	return recs
}

// writeDayRecords materialises recs as one day log in a store.
func writeDayRecords(t *testing.T, s *Store, day time.Time, recs []Record) {
	t.Helper()
	w, err := s.CreateDay(day)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAll collects a day's records through the given scan.
func readAll(t *testing.T, s *Store, day time.Time, sc ColScan) []Record {
	t.Helper()
	var out []Record
	err := s.ReadDayCols(day, sc, func(r *Record) error {
		out = append(out, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAutoDetectMixedLake: one lake directory holding a v1 day and a
// v3 day reads transparently through either store handle, and a day
// still in retired format v2 — a healthy gzip stream whose inner magic
// is "eflc" — is refused by name: ErrRetiredFormat, a bad-magic error
// and not a damage one, so nothing counts or quarantines it.
func TestAutoDetectMixedLake(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStoreFormat(dir, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStoreFormat(dir, FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	day1 := colTestDay
	day3 := colTestDay.AddDate(0, 0, 1)
	rng := rand.New(rand.NewSource(3))
	recs1 := dayRecords(rng, day1, 200)
	recs3 := dayRecords(rng, day3, 200)
	writeDayRecords(t, s1, day1, recs1)
	writeDayRecords(t, s3, day3, recs3)

	for _, c := range []struct {
		day  time.Time
		want []Record
	}{{day1, recs1}, {day3, recs3}} {
		got := readAll(t, s1, c.day, ColScan{}) // either handle reads both
		if len(got) != len(c.want) {
			t.Fatalf("%s: read %d records, want %d", c.day.Format("2006-01-02"), len(got), len(c.want))
		}
		for i := range c.want {
			if !reflect.DeepEqual(got[i], c.want[i]) {
				t.Fatalf("%s: record %d mismatch", c.day.Format("2006-01-02"), i)
			}
		}
	}

	day2 := colTestDay.AddDate(0, 0, 2)
	var v2 bytes.Buffer
	gz := gzip.NewWriter(&v2)
	gz.Write([]byte("eflc\x01block bytes no reader decodes any more"))
	gz.Close()
	if err := os.WriteFile(s1.dayPath(day2), v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt0 := mCorruptRecords.Load()
	err = s3.ReadDayCols(day2, ColScan{}, func(*Record) error { return nil })
	if !errors.Is(err, ErrRetiredFormat) || !errors.Is(err, ErrBadMagic) || errors.Is(err, ErrCorrupt) {
		t.Errorf("v2 day: err = %v, want ErrRetiredFormat (a bad magic, not corruption)", err)
	}
	if err != nil && !strings.Contains(err.Error(), "retired format v2") {
		t.Errorf("v2 day: error does not name the retired format: %v", err)
	}
	if mCorruptRecords.Load() != corrupt0 {
		t.Error("corrupt_records advanced on a healthy file in a retired format")
	}
}

// TestReadDayColsPrunesUnrequested: a narrow projection yields records
// whose unrequested fields are zero — those columns were never decoded.
func TestReadDayColsPrunesUnrequested(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	full := dayRecords(rand.New(rand.NewSource(4)), colTestDay, 500)
	writeDayRecords(t, s, colTestDay, full)

	pruned0, decoded0 := mBytesPruned.Load(), mBytesDecoded.Load()
	got := readAll(t, s, colTestDay, ColScan{Cols: Cols(ColSubID, ColBytesDown)})
	if len(got) != len(full) {
		t.Fatalf("read %d records, want %d", len(got), len(full))
	}
	for i := range full {
		want := Record{SubID: full[i].SubID, BytesDown: full[i].BytesDown}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d not pruned to projection:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if d := mBytesPruned.Load() - pruned0; d == 0 {
		t.Error("pruned_bytes did not advance on a narrow scan")
	}
	if mBytesDecoded.Load()-decoded0 >= mBytesPruned.Load()-pruned0 {
		t.Error("narrow 2-column scan decoded more bytes than it pruned")
	}
}

// TestReadDayColsPredPushdown: a Start-range predicate skips whole
// blocks on their min/max stats, and the surviving records are exactly
// the full scan filtered per record. The same predicate on a v1 file
// yields the identical record set (filtered after decode).
func TestReadDayColsPredPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := dayRecords(rng, colTestDay, 2*colBlockRows+1000)
	dirV3, dirV1 := t.TempDir(), t.TempDir()
	sv3, err := OpenStoreFormat(dirV3, FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	sv1, err := OpenStoreFormat(dirV1, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, sv3, colTestDay, recs)
	writeDayRecords(t, sv1, colTestDay, recs)

	pred := &Pred{StartMin: colTestDay.Add(21 * time.Hour)}
	var want []Record
	for i := range recs {
		if pred.Match(&recs[i]) {
			want = append(want, recs[i])
		}
	}
	if len(want) == 0 || len(want) == len(recs) {
		t.Fatalf("degenerate predicate: %d of %d match", len(want), len(recs))
	}

	skipped0 := mBlocksSkipped.Load()
	got := readAll(t, sv3, colTestDay, ColScan{Pred: pred})
	if d := mBlocksSkipped.Load() - skipped0; d < 1 {
		t.Errorf("blocks_skipped advanced by %d, want >= 1 (records are time-ordered)", d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 predicate scan: %d records, want %d (or content mismatch)", len(got), len(want))
	}

	gotV1 := readAll(t, sv1, colTestDay, ColScan{Pred: pred})
	if !reflect.DeepEqual(gotV1, want) {
		t.Fatalf("v1 predicate scan: %d records, want %d (or content mismatch)", len(gotV1), len(want))
	}

	// Predicate columns populate even when the projection omits them:
	// SrvPort must carry real values or Match would see zeros.
	portPred := &Pred{HasSrvPort: true, SrvPortLo: 0, SrvPortHi: 65535}
	narrow := readAll(t, sv3, colTestDay, ColScan{Cols: Cols(ColSubID), Pred: portPred})
	if len(narrow) != len(recs) {
		t.Fatalf("full-range port predicate dropped records: %d of %d", len(narrow), len(recs))
	}
}

// TestReadDayColsParallelOrder: any worker count delivers the same
// records in the same (file) order as the serial scan — for a full
// read, and for a projected, predicate-filtered one whose skipped
// blocks leave holes in the sequence the reorder buffer restores.
func TestReadDayColsParallelOrder(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	recs := dayRecords(rand.New(rand.NewSource(6)), colTestDay, 5*colBlockRows+77)
	writeDayRecords(t, s, colTestDay, recs)

	for name, sc := range map[string]ColScan{
		"full": {},
		"narrow pushdown": {
			Cols: Cols(ColSubID, ColServerName, ColBytesDown),
			Pred: &Pred{StartMin: colTestDay.Add(6 * time.Hour), StartMax: colTestDay.Add(17 * time.Hour)},
		},
	} {
		sc.Workers = 1
		serial := readAll(t, s, colTestDay, sc)
		if len(serial) == 0 || (sc.Pred != nil && len(serial) == len(recs)) {
			t.Fatalf("%s: degenerate scan: %d of %d records", name, len(serial), len(recs))
		}
		for _, workers := range []int{2, 4, 8} {
			sc.Workers = workers
			if par := readAll(t, s, colTestDay, sc); !reflect.DeepEqual(par, serial) {
				t.Fatalf("%s: workers=%d delivered different records or order", name, workers)
			}
		}
	}
}

// TestColsFnErrorsPropagateUnwrapped: a callback error returns verbatim
// (callers compare sentinels) and stops the scan early — serial and
// parallel alike.
func TestColsFnErrorsPropagateUnwrapped(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, s, colTestDay, dayRecords(rand.New(rand.NewSource(7)), colTestDay, colBlockRows+50))
	sentinel := errors.New("stop here")
	for _, workers := range []int{1, 4} {
		n := 0
		err := s.ReadDayCols(colTestDay, ColScan{Workers: workers}, func(*Record) error {
			n++
			if n == 5 {
				return sentinel
			}
			return nil
		})
		if err != sentinel {
			t.Errorf("workers=%d: err = %v, want the sentinel, unwrapped", workers, err)
		}
		if n != 5 {
			t.Errorf("workers=%d: callback ran %d times, want 5", workers, n)
		}
	}
}

// TestDecodeSlotsComeBack: parallel scans share GOMAXPROCS decode
// slots on top of one each. A scan stalled in its callback with every
// shared slot held does not stop another scan, many scans at once
// still deliver file order, and every slot comes back whether a scan
// ends cleanly, stops at a callback error or hits damage.
func TestDecodeSlotsComeBack(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedDecodeSlots()
	recs := dayRecords(rand.New(rand.NewSource(8)), colTestDay, (cap(shared)+3)*colBlockRows+11)
	writeDayRecords(t, s, colTestDay, recs)
	serial := readAll(t, s, colTestDay, ColScan{Workers: 1})
	idle := func(when string) {
		t.Helper()
		if n := len(shared); n != 0 {
			t.Fatalf("%s: %d shared decode slots still held", when, n)
		}
	}

	release, stalled := make(chan struct{}), make(chan error, 1)
	go func() {
		first := true
		stalled <- s.ReadDayCols(colTestDay, ColScan{Workers: cap(shared) + 1}, func(*Record) error {
			if first {
				first = false
				<-release
			}
			return nil
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); len(shared) < cap(shared); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled scan took %d of %d shared slots", len(shared), cap(shared))
		}
	}
	var beside []Record
	besideErr := make(chan error, 1)
	go func() {
		besideErr <- s.ReadDayCols(colTestDay, ColScan{Workers: 4}, func(r *Record) error {
			beside = append(beside, *r)
			return nil
		})
	}()
	select {
	case err := <-besideErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a scan beside a stalled one made no progress")
	}
	if !reflect.DeepEqual(beside, serial) {
		t.Fatal("scan beside a stalled one delivered different records or order")
	}
	close(release)
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	idle("after a stalled scan")

	var wg sync.WaitGroup
	mismatch := make(chan int, 3*cap(shared))
	for i := 0; i < cap(mismatch); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got []Record
			err := s.ReadDayCols(colTestDay, ColScan{Workers: 2 + i%3}, func(r *Record) error {
				got = append(got, *r)
				return nil
			})
			if err != nil || !reflect.DeepEqual(got, serial) {
				mismatch <- i
			}
		}(i)
	}
	wg.Wait()
	close(mismatch)
	for i := range mismatch {
		t.Errorf("concurrent scan %d failed or delivered different records", i)
	}
	idle("after concurrent scans")

	sentinel := errors.New("stop here")
	for _, at := range []int{1, colBlockRows + 3, len(recs)} {
		n := 0
		err := s.ReadDayCols(colTestDay, ColScan{Workers: 4}, func(*Record) error {
			if n++; n == at {
				return sentinel
			}
			return nil
		})
		if err != sentinel {
			t.Fatalf("stop at %d: err = %v, want the sentinel", at, err)
		}
		idle("after a callback error")
	}

	path := s.dayPath(colTestDay)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadDayCols(colTestDay, ColScan{Workers: 4}, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated day: err = %v, want ErrCorrupt", err)
	}
	idle("after a damaged day")
}

// TestV3OversizeStringRejected: the columnar encoder applies the same
// write-time bound the row codec does — an absurd string field is
// refused (counted), not persisted for every future reader to choke on.
func TestV3OversizeStringRejected(t *testing.T) {
	s, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.CreateDay(colTestDay)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := sampleRecord()
	rec.Start = colTestDay.Add(time.Hour)
	rec.ServerName = strings.Repeat("x", maxDictEntryLen+1)
	over0 := mOversizeRecords.Load()
	if err := w.Write(&rec); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	if mOversizeRecords.Load() != over0+1 {
		t.Error("oversize_records did not advance")
	}
}

// TestEncodeOversizeBoundary pins the v1 encode-time bound exactly: the
// largest record the codec accepts round-trips, one byte more is
// ErrOversize — enforced at write time, where the bad record still has
// a name, instead of at read time five years later.
func TestEncodeOversizeBoundary(t *testing.T) {
	encodes := func(nameLen int) error {
		enc, err := NewEncoder(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		rec := sampleRecord()
		rec.ServerName = strings.Repeat("n", nameLen)
		return enc.Encode(&rec)
	}
	// Binary search the largest accepted name length; the encoded size
	// grows by exactly one byte per name byte in this region.
	lo, hi := 0, maxEncodedRecord+1 // lo accepted, hi rejected
	if encodes(lo) != nil || encodes(hi) == nil {
		t.Fatal("search bounds do not bracket the boundary")
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if encodes(mid) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	over0 := mOversizeRecords.Load()
	if err := encodes(hi); !errors.Is(err, ErrOversize) {
		t.Fatalf("one past the boundary: err = %v, want ErrOversize", err)
	}
	if mOversizeRecords.Load() == over0 {
		t.Error("oversize_records did not advance")
	}

	// The boundary record itself must round-trip: encode enforces the
	// same bound decode checks, so the accepted maximum is readable.
	var buf strings.Builder
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecord()
	want.ServerName = strings.Repeat("n", lo)
	if err := enc.Encode(&want); err != nil {
		t.Fatalf("boundary record rejected: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("boundary record does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("boundary record round-trip mismatch")
	}
}

// TestDaysReadCountsCleanEOFOnly documents the read-metric semantics
// for both formats: store.days_read advances only when a day's stream
// ends cleanly (v1: records + gzip trailer intact; v3: terminator
// matched), while store.bytes_read
// counts the compressed bytes actually consumed — it advances even on
// a read that fails partway, because those bytes were paid for.
func TestDaysReadCountsCleanEOFOnly(t *testing.T) {
	for _, format := range []Format{FormatV1, FormatV3} {
		t.Run(format.String(), func(t *testing.T) {
			s, err := OpenStoreFormat(t.TempDir(), format)
			if err != nil {
				t.Fatal(err)
			}
			writeDayRecords(t, s, colTestDay, dayRecords(rand.New(rand.NewSource(9)), colTestDay, 3000))

			read0, bytes0 := mDaysRead.Load(), mBytesRead.Load()
			if err := s.ReadDay(colTestDay, func(*Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if d := mDaysRead.Load() - read0; d != 1 {
				t.Errorf("clean read advanced days_read by %d, want 1", d)
			}
			if mBytesRead.Load() == bytes0 {
				t.Error("clean read did not advance bytes_read")
			}

			// Damage the tail: the decode consumes most of the stream and
			// then fails — no days_read, but the consumed bytes count.
			path := s.dayPath(colTestDay)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
				t.Fatal(err)
			}
			read1, bytes1 := mDaysRead.Load(), mBytesRead.Load()
			if err := s.ReadDay(colTestDay, func(*Record) error { return nil }); err == nil {
				t.Fatal("damaged day read cleanly")
			}
			if mDaysRead.Load() != read1 {
				t.Error("failed read advanced days_read")
			}
			if mBytesRead.Load() == bytes1 {
				t.Error("failed read did not account its consumed bytes")
			}
		})
	}
}

// TestDaysSkipsNonCanonicalNames: stray files whose names Sscanf
// happily parses but which are not canonical dates (month 0, Feb 30)
// must not list — time.Date would normalise them onto some other real
// day and alias it.
func TestDaysSkipsNonCanonicalNames(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)
	writeDayRecords(t, s, day, dayRecords(rand.New(rand.NewSource(10)), day, 5))

	dir := filepath.Join(s.Root(), "2015", "02")
	for _, name := range []string{
		"flows-20150230.efl.gz", // Feb 30 → would normalise to Mar 2
		"flows-20150003.efl.gz", // month 0
		"flows-20151332.efl.gz", // month 13, day 32
		"flows-00000000.efl.gz", // all zero
		"notes.txt",             // not a log at all
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	days, err := s.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || !days[0].Equal(day) {
		t.Fatalf("Days() = %v, want exactly [%s]", days, day.Format("2006-01-02"))
	}
}
