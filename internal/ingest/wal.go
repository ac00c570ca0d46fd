package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/flowrec"
)

// The write-ahead log. Every record the daemon absorbs is appended,
// before aggregation, to a per-day segment file under
// <walDir>/<YYYYMMDD>/seg-NNNNNN.wal. Segments reuse the flowrec v1
// row codec uncompressed — length-prefixed frames behind a magic —
// because the property the WAL needs is exactly the property v1 was
// built with: a torn tail damages only the last frame, and every
// frame before it replays intact. A new segment opens per (day,
// process incarnation), so a crashed writer's torn tail is sealed
// away in its own file and the next incarnation appends cleanly.
//
// Sealing a day is a WAL→lake rewrite (replay the segments, write the
// day through Storage.WriteDay, remove the segments), which makes the
// lake an LSM over the WAL: unsealed data lives only under .wal,
// where batch readers never look (flowrec.Store.Days skips the tree).

// dayDirFormat names a day's segment directory.
const dayDirFormat = "20060102"

// walDayDir returns the segment directory for day.
func walDayDir(walDir string, day time.Time) string {
	return filepath.Join(walDir, day.UTC().Format(dayDirFormat))
}

// walWriter appends one day's records to an open segment.
type walWriter struct {
	f   *os.File
	enc *flowrec.Encoder
}

// openSegment creates the next segment file for day — numbered after
// the existing ones, so replay order is lexical order.
func openSegment(walDir string, day time.Time) (*walWriter, error) {
	dir := walDayDir(walDir, day)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.wal", len(segs)))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	enc, err := flowrec.NewEncoder(f)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	return &walWriter{f: f, enc: enc}, nil
}

// append adds one record to the segment (buffered; Flush makes it
// crash-durable).
func (w *walWriter) append(r *flowrec.Record) error {
	return w.enc.Encode(r)
}

// flush pushes buffered frames to the OS. After flush returns, the
// appended records survive a process kill (the crash model here —
// media durability would add fsync, which the simulated probe skips
// exactly like the paper's real one did for throughput).
func (w *walWriter) flush() error {
	return w.enc.Flush()
}

// close flushes and closes the segment.
func (w *walWriter) close() error {
	err := w.enc.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSegments returns a day directory's segment paths in replay
// order. A missing directory is an empty list.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	var segs []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// replayDay streams every intact frame of a day's WAL, in append
// order, to fn. A torn tail — the unflushed last frame of a killed
// writer — ends that segment's replay silently and the next segment
// continues: the lost suffix was never checkpointed (checkpoints
// flush first), so the resumed stream re-delivers it. A frame
// damaged after it was absorbed ends its segment the same way, and
// the frames behind it are lost; sealDay counts them. Returns the
// number of intact frames.
func replayDay(walDir string, day time.Time, fn func(*flowrec.Record) error) (uint64, error) {
	segs, err := listSegments(walDayDir(walDir, day))
	if err != nil {
		return 0, err
	}
	var n uint64
	var rec flowrec.Record
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			return n, fmt.Errorf("ingest: wal replay: %w", err)
		}
		dec, err := flowrec.NewDecoder(f)
		if err != nil {
			// An empty or headerless segment: a writer died before its
			// first flush. Nothing of it was durable; skip.
			f.Close()
			continue
		}
		for {
			if err := dec.Decode(&rec); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				// A torn tail, or damage after absorption: nothing past
				// it can be trusted to be a frame; stop this segment,
				// keep the rest.
				break
			}
			if err := fn(&rec); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
		f.Close()
	}
	return n, nil
}

// walDays lists the days that have a WAL directory.
func walDays(walDir string) ([]time.Time, error) {
	ents, err := os.ReadDir(walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	var days []time.Time
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		day, err := time.ParseInLocation(dayDirFormat, e.Name(), time.UTC)
		if err != nil {
			continue
		}
		days = append(days, day)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	return days, nil
}

// removeDayWAL deletes a sealed day's segments.
func removeDayWAL(walDir string, day time.Time) error {
	return os.RemoveAll(walDayDir(walDir, day))
}
