// Package framefile is the one codec for derived-state files: day
// aggregates, checkpoint partials, rollups and the ingest cursor. Those files are the pipeline's second dataset —
// everything stage two reads instead of the raw flows — so they share
// one layout, one checksum, one atomic publish and one temp-file name,
// and every read verifies the checksum before it decodes. A file is a
// sequence of frames:
//
//	"epf1" | payload bytes (u32 LE) | crc32c(length field + payload) (u32 LE) | payload
//
// where a payload is one gzip'd gob value. Most files hold one frame
// (Save, Load); a checkpoint file holds a base frame and the delta
// frames appended behind it (Append, Scan). Damage never decodes: a
// frame that is cut short or fails its checksum ends the file for
// every reader, so a damaged file reads as a miss or an error, never
// as a different value. The schema version of a payload lives in its
// file's name, which the callers spell.
package framefile

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

	"repro/internal/zpool"
)

const (
	magic     = "epf1"
	headerLen = 12 // magic, length field, checksum
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sum checksums a frame's length field and payload, so a damaged
// length cannot pass by pointing at bytes that happen to sum right.
func sum(lenField, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, castagnoli), castagnoli, payload)
}

// Scan calls fn with the offset and payload of each leading valid
// frame of data. It stops at the first frame that is cut short or
// fails its checksum, or when fn returns false.
func Scan(data []byte, fn func(off int, payload []byte) bool) {
	for off := 0; len(data)-off >= headerLen; {
		h := data[off : off+headerLen]
		size := int(binary.LittleEndian.Uint32(h[4:8]))
		if string(h[:4]) != magic || size > len(data)-off-headerLen {
			return
		}
		payload := data[off+headerLen : off+headerLen+size]
		if sum(h[4:8], payload) != binary.LittleEndian.Uint32(h[8:12]) || !fn(off, payload) {
			return
		}
		off += headerLen + size
	}
}

// Decode gob-decodes a payload Scan yielded into v.
func Decode(payload []byte, v any) error {
	gz, err := zpool.GzipReader(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer zpool.PutGzipReader(gz)
	defer gz.Close()
	return gob.NewDecoder(gz).Decode(v)
}

// Read calls fn with the bytes of the file at path. They sit in a
// pooled buffer that is reused once fn returns, so fn must not keep
// them; what Decode builds from them it may keep, since a payload is
// inflated into fresh memory before gob reads it. The pool keeps a
// load's allocations those of a streamed decode, although the
// checksum needs the whole file before anything decodes.
func Read(path string, fn func(data []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	bp := zpool.Buf(int(fi.Size()))
	defer zpool.PutBuf(bp)
	n, err := io.ReadFull(f, *bp)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return err
	}
	// A file cut since Stat reads as the bytes it still holds.
	return fn((*bp)[:n])
}

// Load decodes the file at path into v. The file must be exactly one
// frame that passes its checksum.
func Load(path string, v any) error {
	return Read(path, func(data []byte) error {
		err := fmt.Errorf("framefile: %s is not one whole frame", path)
		Scan(data, func(_ int, payload []byte) bool {
			if headerLen+len(payload) == len(data) {
				err = Decode(payload, v)
			}
			return false
		})
		return err
	})
}

// encode appends one frame holding v to buf. fast compresses at
// BestSpeed, for frames whose bytes die soon after they are written:
// a checkpoint's base and its deltas, which the next rewrite or the
// day's seal replaces. Everything else is written once and read many
// times, and takes the default level.
func encode(buf *bytes.Buffer, v any, fast bool) error {
	start := buf.Len()
	var header [headerLen]byte // filled in once the payload's size and sum are known
	buf.Write(header[:])
	gz, put := zpool.GzipWriter(buf), zpool.PutGzipWriter
	if fast {
		gz, put = zpool.GzipWriterSpeed(buf), zpool.PutGzipWriterSpeed
	}
	err := gob.NewEncoder(gz).Encode(v)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	put(gz)
	if err != nil {
		return err
	}
	h := buf.Bytes()[start:]
	if uint64(len(h)-headerLen) > math.MaxUint32 {
		return fmt.Errorf("framefile: frame of %d bytes exceeds the format's 4 GiB", len(h)-headerLen)
	}
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(h)-headerLen))
	binary.LittleEndian.PutUint32(h[8:12], sum(h[4:8], h[headerLen:]))
	return nil
}

// tempPrefix names the siblings Save writes path's bytes to before it
// renames one into place.
func tempPrefix(path string) string { return filepath.Base(path) + ".tmp-" }

// Save replaces the file at path with one frame holding v, creating
// the directory if needed, and returns the bytes it wrote. fast
// compresses at BestSpeed instead of the default level (see encode).
// The publish is atomic: the frame goes to a unique temp sibling that
// is renamed over path, so readers see the old file or the new one,
// never half.
func Save(path string, v any, fast bool) (int64, error) {
	var buf bytes.Buffer
	if err := encode(&buf, v, fast); err != nil {
		return 0, err
	}
	if err := Replace(path, buf.Bytes()); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// Replace publishes data as the file at path, creating the directory
// if needed, the way Save publishes a frame: through a unique temp
// sibling renamed over path. Writers in different processes therefore
// never share a temp, and RemoveTemps sweeps what a killed one left.
func Replace(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tempPrefix(path)+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Append adds one frame holding v behind the frames of the existing
// file at path, compressed at BestSpeed: appended frames are deltas
// their writer folds into a fresh base, saved at BestSpeed too, before
// long. The file must exist. A write that fails part-way is cut back
// off, so a retry does not append behind a torn frame that would hide
// it from readers.
func Append(path string, v any) error {
	var buf bytes.Buffer
	if err := encode(&buf, v, true); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	var size int64
	if fi, serr := f.Stat(); serr == nil {
		size = fi.Size()
	}
	_, err = f.Write(buf.Bytes())
	if err != nil && size > 0 {
		// Best effort: a tail left torn costs the frames behind it, and
		// only until the writer's next Save.
		_ = f.Truncate(size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sizes returns the bytes of the first frame of the file at path and
// of the whole file, both zero when the file is absent or does not
// start with a frame header.
func Sizes(path string) (first, total int64) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0
	}
	var h [headerLen]byte
	if _, err := io.ReadFull(f, h[:]); err != nil || string(h[:4]) != magic {
		return 0, 0
	}
	return headerLen + int64(binary.LittleEndian.Uint32(h[4:8])), fi.Size()
}

// RemoveTemps removes the temp siblings that Saves of paths left when
// they died before their rename. Nothing else ever would: a later Save
// draws a fresh name. Only the paths' one writer may call it — it
// would take a concurrent Save's temp from under it. A directory that
// does not exist holds no temps.
func RemoveTemps(paths ...string) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	for _, path := range paths {
		dir, prefix := filepath.Dir(path), tempPrefix(path)
		ents, err := os.ReadDir(dir)
		keep(err)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), prefix) {
				keep(os.Remove(filepath.Join(dir, e.Name())))
			}
		}
	}
	return firstErr
}
