package flowrec

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/zpool"
)

// Store observability: record and (compressed) byte throughput in both
// directions, plus the damage counters a five-year lake accumulates.
// Per-record counts are batched per day-file, so the decode loop pays
// no atomics.
var (
	mRecordsWritten = metrics.GetCounter("store.records_written")
	mBytesWritten   = metrics.GetCounter("store.bytes_written")
	mRecordsRead    = metrics.GetCounter("store.records_read")
	mBytesRead      = metrics.GetCounter("store.bytes_read")
	mCorruptRecords = metrics.GetCounter("store.corrupt_records")
	mDaysWritten    = metrics.GetCounter("store.days_written")
	mDaysRead       = metrics.GetCounter("store.days_read")
	mDaysMissing    = metrics.GetCounter("store.days_missing")
	mQuarantined    = metrics.GetCounter("store.quarantined_days")
	// mOversizeRecords counts records rejected at encode time for
	// exceeding the codec's wire-size bound — data the lake refused,
	// not data it lost.
	mOversizeRecords = metrics.GetCounter("store.oversize_records")
)

// countingWriter tracks compressed bytes leaving a DayWriter.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// Store is the data lake of the reproduction: a directory of
// day-partitioned, gzip-compressed flow logs, mirroring the paper's
// "daily, logs are copied into a long-term storage" workflow
// (section 2.2). File layout: <root>/YYYY/MM/flows-YYYYMMDD.efl.gz.
// Each file is either row-oriented v1 or columnar v3 (see Format);
// readers auto-detect per file, so both coexist in one lake.
type Store struct {
	root   string
	format Format // what CreateDay writes; reads auto-detect
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flowrec: opening store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store directory.
func (s *Store) Root() string { return s.root }

// dayPath returns the log path for a UTC day.
func (s *Store) dayPath(day time.Time) string {
	day = day.UTC()
	return filepath.Join(s.root,
		fmt.Sprintf("%04d", day.Year()),
		fmt.Sprintf("%02d", int(day.Month())),
		fmt.Sprintf("flows-%04d%02d%02d.efl.gz", day.Year(), int(day.Month()), day.Day()))
}

// dayEncoder is the record-sink surface a DayWriter needs; both the
// v1 row Encoder and the v3 columnar encoder provide it.
type dayEncoder interface {
	Encode(*Record) error
	Flush() error
	Count() uint64
}

// DayWriter appends records to one day's log. Records must all belong
// to the day it was opened for; Write enforces this because a
// mis-partitioned lake silently corrupts every per-day aggregate.
type DayWriter struct {
	day     time.Time
	f       *os.File
	cw      *countingWriter
	gz      *gzip.Writer // nil for v3 (compression lives inside the blocks)
	enc     dayEncoder
	path    string
	final   string // when set, Close publishes path→final atomically
	compact bool   // publishing to the compaction counters, not throughput
}

// openTmpSuffix marks an in-flight day log. The suffix keeps the file
// outside the day-name pattern, so Days()/HasDay/ReadDay never see a
// writer that has not sealed (Close renames it away atomically).
const openTmpSuffix = ".open.tmp"

// CreateDay creates the log for day. The write is atomic: records
// accumulate in a temp sibling, and only a successful Close publishes
// the final path. A writer that crashes — or a day the ingest daemon
// is still filling — is invisible to every batch read surface; it can
// never be picked up as a sealed day.
func (s *Store) CreateDay(day time.Time) (*DayWriter, error) {
	final := s.dayPath(day)
	w, err := s.createDayAt(final+openTmpSuffix, day, s.format)
	if err != nil {
		return nil, err
	}
	w.final = final
	return w, nil
}

// createDayAt opens a day writer on an explicit path in an explicit
// format — CreateDay's engine, shared with compaction (which writes a
// sibling temp file before renaming over the original).
func (s *Store) createDayAt(path string, day time.Time, format Format) (*DayWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("flowrec: creating day dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("flowrec: creating day log: %w", err)
	}
	cw := &countingWriter{w: f}
	var enc dayEncoder
	var gz *gzip.Writer
	if format == FormatV3 {
		// v3 compresses inside the block framing; a file-level gzip
		// layer would serialise block decompression again.
		enc, err = newColEncoder(cw)
	} else {
		gz = zpool.GzipWriterSpeed(cw)
		enc, err = NewEncoder(gz)
	}
	if err != nil {
		if gz != nil {
			gz.Close()
			zpool.PutGzipWriterSpeed(gz)
		}
		f.Close()
		return nil, err
	}
	y, m, d := day.UTC().Date()
	return &DayWriter{
		day: time.Date(y, m, d, 0, 0, 0, 0, time.UTC),
		f:   f, cw: cw, gz: gz, enc: enc, path: path,
	}, nil
}

// Day returns the UTC midnight this writer covers.
func (w *DayWriter) Day() time.Time { return w.day }

// Count returns the number of records written so far.
func (w *DayWriter) Count() uint64 { return w.enc.Count() }

// Write appends one record, validating its partition.
func (w *DayWriter) Write(r *Record) error {
	if !r.Day().Equal(w.day) {
		return fmt.Errorf("flowrec: record of %s written to log of %s",
			r.Day().Format("2006-01-02"), w.day.Format("2006-01-02"))
	}
	return w.enc.Encode(r)
}

// Close flushes, seals and publishes the log (for a CreateDay writer,
// the atomic rename onto the day path happens here), then publishes
// throughput counters. On any error the temp file is removed: a day
// either seals completely or leaves nothing at its path.
func (w *DayWriter) Close() error {
	var firstErr error
	if err := w.enc.Flush(); err != nil {
		firstErr = err
	}
	if w.gz != nil { // v3 writes raw; there is no file-level gzip layer
		if err := w.gz.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		zpool.PutGzipWriterSpeed(w.gz)
		w.gz = nil
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if w.final != "" {
		if firstErr != nil {
			os.Remove(w.path)
			return firstErr
		}
		if err := os.Rename(w.path, w.final); err != nil {
			os.Remove(w.path)
			return fmt.Errorf("flowrec: sealing day log: %w", err)
		}
	} else if firstErr != nil {
		return firstErr
	}
	if w.compact {
		mCompactedDays.Inc()
		mCompactedBytes.Add(w.cw.n)
	} else {
		mRecordsWritten.Add(w.enc.Count())
		mBytesWritten.Add(w.cw.n)
		mDaysWritten.Inc()
	}
	return firstErr
}

// Abort closes and discards the writer without sealing: no file is
// published and no throughput is counted. The emit-failure path of a
// day write uses it so a failed write leaves no file at the day path.
func (w *DayWriter) Abort() {
	if w.gz != nil {
		w.gz.Close()
		zpool.PutGzipWriterSpeed(w.gz)
		w.gz = nil
	}
	w.f.Close()
	os.Remove(w.path)
}

// ErrNoDay reports a missing day partition — a probe outage in the
// paper's terms (section 2.3); callers skip and carry on.
var ErrNoDay = errors.New("flowrec: no log for day")

// ReadDay streams every record of one day to fn: ReadDayCols with no
// projection and no predicate. store.days_read counts only days whose
// stream ended cleanly — a day that fails mid-read never inflates
// read-throughput metrics.
func (s *Store) ReadDay(day time.Time, fn func(*Record) error) error {
	return s.ReadDayCols(day, ColScan{}, fn)
}

// countingReader tracks compressed bytes entering a day read.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// quarantineDirName is where QuarantineDay parks damaged day logs,
// directly under the store root. Days() skips it, so a quarantined day
// reads as a probe outage (ErrNoDay) instead of a recurring failure.
const quarantineDirName = ".quarantine"

// WALDirName is where the ingest daemon keeps its write-ahead
// segments, directly under the store root. Days() skips the whole
// subtree: WAL segments are by definition unsealed data, whatever
// their file names look like.
const WALDirName = ".wal"

// QuarantineDay moves a damaged day's log into <root>/.quarantine/,
// taking it out of the read path: later reads see ErrNoDay (an
// outage), not the same corrupt bytes again. The evidence is kept for
// offline inspection rather than deleted. Quarantining a day with no
// log is a no-op.
func (s *Store) QuarantineDay(day time.Time) error {
	src := s.dayPath(day)
	if _, err := os.Stat(src); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("flowrec: quarantining day: %w", err)
	}
	qdir := filepath.Join(s.root, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("flowrec: quarantining day: %w", err)
	}
	if err := os.Rename(src, filepath.Join(qdir, filepath.Base(src))); err != nil {
		return fmt.Errorf("flowrec: quarantining day: %w", err)
	}
	mQuarantined.Inc()
	return nil
}

// Days lists every day with a log, sorted ascending. Quarantined logs
// are not listed.
func (s *Store) Days() ([]time.Time, error) {
	var days []time.Time
	err := filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Dot-dirs are operational state, not lake data: the
			// quarantine, the ingest daemon's WAL, its checkpoint
			// cache when colocated under the root.
			if path != s.root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		var y, m, dd int
		base := filepath.Base(path)
		if _, err := fmt.Sscanf(base, "flows-%4d%2d%2d.efl.gz", &y, &m, &dd); err != nil {
			return nil // not a log file
		}
		// Sscanf matches prefixes, so temp siblings of in-flight
		// writes ("….efl.gz.open.tmp", "….efl.gz.compact.tmp") would
		// parse too — and list a half-written day as sealed. Only the
		// exact canonical name is a sealed day.
		if base != fmt.Sprintf("flows-%04d%02d%02d.efl.gz", y, m, dd) {
			return nil // trailing garbage: an unsealed temp, not a log
		}
		// Sscanf accepts impossible dates (month 0, day 32) from stray
		// matching names, and time.Date silently normalises them into
		// some other day — which would then read as missing or, worse,
		// alias a real day. Only canonical names list: the parsed
		// components must round-trip through time.Date unchanged.
		day := time.Date(y, time.Month(m), dd, 0, 0, 0, 0, time.UTC)
		if gy, gm, gd := day.Date(); gy != y || gm != time.Month(m) || gd != dd {
			return nil // non-canonical date: not a log file
		}
		days = append(days, day)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flowrec: listing days: %w", err)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	return days, nil
}

// HasDay reports whether a log exists for day.
func (s *Store) HasDay(day time.Time) bool {
	_, err := os.Stat(s.dayPath(day))
	return err == nil
}
