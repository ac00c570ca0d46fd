package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/zpool"
)

// Persistent stage-one cache. The paper's cluster keeps per-day
// aggregates materialised so that "advanced analytics and
// visualizations" (stage two) iterate without touching the raw flow
// records again (section 2.2). With a cache directory configured, a
// pipeline does the same: each day's aggregate is written as a
// gob-encoded, gzip-compressed file and reloaded on the next run.

// aggCacheVersion invalidates old cache files when the aggregate
// schema changes.
const aggCacheVersion = 3

// cachedAgg is the on-disk envelope.
type cachedAgg struct {
	Version int
	Agg     *analytics.DayAgg
}

// aggCachePath names the cache file for a day.
func aggCachePath(dir string, day time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("agg-%s-v%d.gob.gz", day.Format("20060102"), aggCacheVersion))
}

// loadAgg reads a cached aggregate, returning nil when absent or
// unusable (a stale or damaged cache is recomputed, never trusted).
func loadAgg(dir string, day time.Time) *analytics.DayAgg {
	f, err := os.Open(aggCachePath(dir, day))
	if err != nil {
		return nil
	}
	defer f.Close()
	gz, err := zpool.GzipReader(f)
	if err != nil {
		return nil
	}
	defer zpool.PutGzipReader(gz)
	defer gz.Close()
	var env cachedAgg
	if err := gob.NewDecoder(gz).Decode(&env); err != nil {
		return nil
	}
	if env.Version != aggCacheVersion || env.Agg == nil || !env.Agg.Day.Equal(day) {
		return nil
	}
	return env.Agg
}

// Shard-partial cache files. A sharded run persists each day's
// unmerged shard partials instead of the final aggregate, so an
// incremental re-run — possibly with a different worker or shard
// count — merges the cached shards (cheap) instead of re-reading the
// day's records (expensive). The merge is the same monoid the live
// path uses, so replayed days stay byte-identical.
//
// The file is a sequence of frames, [base][delta]…[delta]:
//
//	"epf1" | payload bytes (u32 LE) | crc32c(length field + payload) (u32 LE) | payload
//
// where a payload is one gzip'd gob cachedPartials envelope. The batch
// path writes the whole file as one frame (savePartials, temp +
// rename); the live ingester writes its open day's merged partial the
// same way and then appends what each later checkpoint folded as a
// further frame (appendPartial), so a checkpoint costs the records
// since the last one rather than the whole day. A reader takes every
// frame up to the first that is short, fails its checksum or does not
// decode — a torn or damaged tail reads as the older snapshot the
// frames before it add up to, never as an error.

// partialCacheVersion invalidates old partial files when the partial
// schema or the file framing changes, independently of the
// final-aggregate envelope.
const partialCacheVersion = 3

const (
	frameMagic     = "epf1"
	frameHeaderLen = 12
)

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// frameSum checksums a frame's length field and payload, so a damaged
// length cannot pass by pointing at bytes that happen to sum right.
func frameSum(lenField, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, frameCRC), frameCRC, payload)
}

// cachedPartials is the envelope one frame carries.
type cachedPartials struct {
	Version int
	Day     time.Time
	Parts   []*analytics.Partial
}

// partialCachePath names the shard-partial file for a day.
func partialCachePath(dir string, day time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("parts-%s-v%d.frames", day.Format("20060102"), partialCacheVersion))
}

// scanFrames calls fn with the offset and payload of each leading
// valid frame of data. It stops at the first frame that is cut short
// or fails its checksum, or when fn returns false.
func scanFrames(data []byte, fn func(off int, payload []byte) bool) {
	for off := 0; len(data)-off >= frameHeaderLen; {
		h := data[off : off+frameHeaderLen]
		size := int(binary.LittleEndian.Uint32(h[4:8]))
		if string(h[:4]) != frameMagic || size > len(data)-off-frameHeaderLen {
			return
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+size]
		if frameSum(h[4:8], payload) != binary.LittleEndian.Uint32(h[8:12]) || !fn(off, payload) {
			return
		}
		off += frameHeaderLen + size
	}
}

// decodePartials returns the parts of every leading healthy frame of a
// partial file's bytes, in file order.
func decodePartials(data []byte, day time.Time) []*analytics.Partial {
	var parts []*analytics.Partial
	scanFrames(data, func(_ int, payload []byte) bool {
		gz, err := zpool.GzipReader(bytes.NewReader(payload))
		if err != nil {
			return false
		}
		defer zpool.PutGzipReader(gz)
		defer gz.Close()
		var env cachedPartials
		if err := gob.NewDecoder(gz).Decode(&env); err != nil {
			return false
		}
		if env.Version != partialCacheVersion || len(env.Parts) == 0 || !env.Day.Equal(day) {
			return false
		}
		parts = append(parts, env.Parts...)
		return true
	})
	return parts
}

// loadPartials reads a day's cached partials, nil when absent or
// unusable — same trust model as loadAgg.
func loadPartials(dir string, day time.Time) []*analytics.Partial {
	data, err := os.ReadFile(partialCachePath(dir, day))
	if err != nil {
		return nil
	}
	return decodePartials(data, day)
}

// encodeFrame appends one frame holding parts to buf. Delta frames
// compress at BestSpeed: they are rewritten into the next base within
// the day, so the few bytes the default level would save never last.
func encodeFrame(buf *bytes.Buffer, day time.Time, parts []*analytics.Partial, delta bool) error {
	start := buf.Len()
	var header [frameHeaderLen]byte // filled in once the payload's size and sum are known
	buf.Write(header[:])
	gz, put := zpool.GzipWriter(buf), zpool.PutGzipWriter
	if delta {
		gz, put = zpool.GzipWriterSpeed(buf), zpool.PutGzipWriterSpeed
	}
	err := gob.NewEncoder(gz).Encode(cachedPartials{Version: partialCacheVersion, Day: day, Parts: parts})
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	put(gz)
	if err != nil {
		return err
	}
	h := buf.Bytes()[start:]
	if uint64(len(h)-frameHeaderLen) > math.MaxUint32 {
		return fmt.Errorf("frame of %d bytes exceeds the format's 4 GiB", len(h)-frameHeaderLen)
	}
	copy(h, frameMagic)
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(h)-frameHeaderLen))
	binary.LittleEndian.PutUint32(h[8:12], frameSum(h[4:8], h[frameHeaderLen:]))
	return nil
}

// savePartials replaces a day's partial file with one frame holding
// parts, atomically like saveAgg.
func savePartials(dir string, day time.Time, parts []*analytics.Partial) error {
	var buf bytes.Buffer
	if err := encodeFrame(&buf, day, parts, false); err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	path := partialCachePath(dir, day)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(buf.Bytes())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: partial cache: %w", err)
	}
	return nil
}

// appendPartial appends p to a day's partial file as one delta frame.
// The file must exist: a delta only means something after the base
// that savePartials wrote. A write that fails part-way is cut back
// off, so a retry does not append behind a torn frame that would hide
// it from readers.
func appendPartial(dir string, day time.Time, p *analytics.Partial) error {
	var buf bytes.Buffer
	if err := encodeFrame(&buf, day, []*analytics.Partial{p}, true); err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	f, err := os.OpenFile(partialCachePath(dir, day), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	var size int64
	if fi, serr := f.Stat(); serr == nil {
		size = fi.Size()
	}
	_, err = f.Write(buf.Bytes())
	if err != nil && size > 0 {
		// Best effort: a tail left torn costs freshness, not
		// correctness, and only until the writer's next rewrite.
		_ = f.Truncate(size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	return nil
}

// partialsSize returns the bytes of a day's base frame and of its whole
// partial file, both zero when the file is absent or does not start
// with a frame header.
func partialsSize(dir string, day time.Time) (base, total int64) {
	f, err := os.Open(partialCachePath(dir, day))
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0
	}
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(f, h[:]); err != nil || string(h[:4]) != frameMagic {
		return 0, 0
	}
	return frameHeaderLen + int64(binary.LittleEndian.Uint32(h[4:8])), fi.Size()
}

// sweepTemps removes the temp siblings that a save killed between
// CreateTemp and Rename left beside a day's aggregate and partial
// files. Nothing else ever would: a later save draws a fresh name.
func sweepTemps(dir string, day time.Time) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	agg := filepath.Base(aggCachePath(dir, day)) + ".tmp-"
	parts := filepath.Base(partialCachePath(dir, day)) + ".tmp-"
	var firstErr error
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), agg) && !strings.HasPrefix(e.Name(), parts) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// saveAgg writes an aggregate to the cache. Failures are returned so
// callers can surface them; a full disk should not pass silently.
func saveAgg(dir string, agg *analytics.DayAgg) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: aggregate cache: %w", err)
	}
	path := aggCachePath(dir, agg.Day)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: aggregate cache: %w", err)
	}
	tmp := f.Name()
	gz := zpool.GzipWriter(f)
	err = gob.NewEncoder(gz).Encode(cachedAgg{Version: aggCacheVersion, Agg: agg})
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	zpool.PutGzipWriter(gz)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: aggregate cache: %w", err)
	}
	// Atomic publish: readers never see half a file.
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: aggregate cache: %w", err)
	}
	return nil
}
