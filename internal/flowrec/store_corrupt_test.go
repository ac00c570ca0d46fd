package flowrec

import (
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Failure injection: a data lake accumulates damage over five years —
// truncated copies, bad blocks, stray files. The reader must fail
// loudly on damage and ignore impostors, never return garbage records.

func writeOneDay(t *testing.T, s *Store, day time.Time) string {
	t.Helper()
	w, err := s.CreateDay(day)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	rec.Start = day.Add(2 * time.Hour)
	for i := 0; i < 20; i++ {
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(s.Root(),
		day.Format("2006"), day.Format("01"),
		"flows-"+day.Format("20060102")+".efl.gz")
}

func TestReadDayTruncatedGzip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)
	path := writeOneDay(t, s, day)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = s.ReadDay(day, func(*Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated log: err = %v, want ErrCorrupt", err)
	}
}

// TestReadDayDamagedGzipTail regresses the swallowed gzip.Reader.Close
// error: a file whose flate stream decodes every record but whose gzip
// trailer is truncated or checksum-damaged must fail loudly, count as
// corruption and wrap ErrCorrupt, not read as a clean day.
func TestReadDayDamagedGzipTail(t *testing.T) {
	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-4] }},
		{"bad checksum", func(b []byte) []byte {
			b[len(b)-8] ^= 0xFF // first CRC32 byte of the trailer
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			day := time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)
			path := writeOneDay(t, s, day)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			before := mCorruptRecords.Load()
			if err := s.ReadDay(day, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged gzip tail: err = %v, want ErrCorrupt", err)
			}
			if after := mCorruptRecords.Load(); after == before {
				t.Error("store.corrupt_records not incremented for damaged gzip tail")
			}
		})
	}
}

func TestReadDayGarbageFile(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)
	path := writeOneDay(t, s, day)
	if err := os.WriteFile(path, []byte("this is not a flow log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadDay(day, func(*Record) error { return nil }); err == nil {
		t.Fatal("garbage file read without error")
	}
}

func TestReadDayWrongInnerMagic(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)
	path := writeOneDay(t, s, day)

	// Valid gzip, wrong payload.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	gz.Write([]byte("EVIL payload that is not a flow log at all"))
	gz.Close()
	f.Close()

	err = s.ReadDay(day, func(*Record) error { return nil })
	if !errors.Is(err, ErrBadMagic) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong-magic payload: err = %v, want ErrBadMagic and not ErrCorrupt (the file is healthy)", err)
	}
}

func TestDaysIgnoresStrayFiles(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2016, 8, 9, 0, 0, 0, 0, time.UTC)
	writeOneDay(t, s, day)
	// Stray files a real lake accumulates.
	os.WriteFile(filepath.Join(s.Root(), "README"), []byte("x"), 0o644)
	os.MkdirAll(filepath.Join(s.Root(), "2016", "08", "tmp"), 0o755)
	os.WriteFile(filepath.Join(s.Root(), "2016", "08", "notes.txt"), []byte("y"), 0o644)

	days, err := s.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || !days[0].Equal(day) {
		t.Errorf("Days = %v, want just %v", days, day)
	}
}

// TestQuarantineDay: a damaged day moved to quarantine reads back as a
// missing day (an outage), disappears from Days(), and bumps the
// store.quarantined_days counter.
func TestQuarantineDay(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC)
	other := time.Date(2016, 4, 10, 0, 0, 0, 0, time.UTC)
	path := writeOneDay(t, s, day)
	writeOneDay(t, s, other)

	before := mQuarantined.Load()
	if err := s.QuarantineDay(day); err != nil {
		t.Fatal(err)
	}
	if got := mQuarantined.Load() - before; got != 1 {
		t.Errorf("store.quarantined_days moved by %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("day file still present after quarantine: %v", err)
	}
	moved := filepath.Join(s.Root(), ".quarantine", filepath.Base(path))
	if _, err := os.Stat(moved); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	if err := s.ReadDay(day, func(*Record) error { return nil }); !errors.Is(err, ErrNoDay) {
		t.Errorf("quarantined day reads as %v, want ErrNoDay", err)
	}
	days, err := s.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || !days[0].Equal(other) {
		t.Errorf("Days() = %v, want just %s", days, other.Format("2006-01-02"))
	}
	if s.HasDay(day) {
		t.Error("HasDay still true after quarantine")
	}
	// Quarantining a missing day is a no-op, not an error.
	if err := s.QuarantineDay(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Errorf("quarantining a missing day: %v", err)
	}
}
