package flowrec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// The binary codec: a stream of length-prefixed records after a small
// magic header. Integers are varint-encoded because flow counters are
// heavily skewed toward small values; this roughly halves log size
// before gzip.

// codecMagic guards against feeding the reader a non-log file.
var codecMagic = [4]byte{'e', 'f', 'l', '1'}

// Errors returned by the codec.
var (
	ErrBadMagic = errors.New("flowrec: not a flow log (bad magic)")
	ErrCorrupt  = errors.New("flowrec: corrupt record")
	// ErrOversize rejects a record at encode time whose wire size
	// exceeds what any decoder would accept. Writers must fail fast:
	// an oversized record that reached disk would make the whole day
	// read as corrupt and get quarantined.
	ErrOversize = errors.New("flowrec: record exceeds max encoded size")
)

// maxEncodedRecord bounds a single record's wire size; anything larger
// is corruption, not data.
const maxEncodedRecord = 1 << 16

// Encoder writes records to an underlying writer in binary format.
type Encoder struct {
	w     *bufio.Writer
	buf   []byte
	count uint64
}

// NewEncoder writes the stream header and returns an encoder.
func NewEncoder(w io.Writer) (*Encoder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return nil, fmt.Errorf("flowrec: writing magic: %w", err)
	}
	return &Encoder{w: bw}, nil
}

// Count reports how many records were encoded.
func (e *Encoder) Count() uint64 { return e.count }

// Encode appends one record to the stream.
func (e *Encoder) Encode(r *Record) error {
	b := e.buf[:0]
	b = append(b, r.Client[:]...)
	b = append(b, r.Server[:]...)
	b = binary.BigEndian.AppendUint16(b, r.CliPort)
	b = binary.BigEndian.AppendUint16(b, r.SrvPort)
	b = append(b, byte(r.Proto), byte(r.Tech), byte(r.Web), byte(r.NameSrc))
	b = binary.AppendUvarint(b, uint64(r.SubID))
	b = binary.AppendUvarint(b, uint64(r.Start.UnixMilli()))
	b = binary.AppendUvarint(b, uint64(r.Duration/time.Millisecond))
	b = binary.AppendUvarint(b, uint64(r.PktsUp))
	b = binary.AppendUvarint(b, uint64(r.PktsDown))
	b = binary.AppendUvarint(b, r.BytesUp)
	b = binary.AppendUvarint(b, r.BytesDown)
	b = appendString(b, r.ServerName)
	b = appendString(b, r.ALPN)
	b = appendString(b, r.QUICVer)
	b = binary.AppendUvarint(b, uint64(r.RTTMin/time.Microsecond))
	b = binary.AppendUvarint(b, uint64(r.RTTAvg/time.Microsecond))
	b = binary.AppendUvarint(b, uint64(r.RTTMax/time.Microsecond))
	b = binary.AppendUvarint(b, uint64(r.RTTSamples))
	e.buf = b

	// Enforce the decoder's bound at write time: an oversized record
	// (a hostile or fuzzed server name) must error here, not write a
	// day log the reader will reject wholesale as corrupt.
	if len(b) > maxEncodedRecord {
		mOversizeRecords.Inc()
		return fmt.Errorf("flowrec: encoded record of %d bytes (max %d): %w",
			len(b), maxEncodedRecord, ErrOversize)
	}

	var lenBuf [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(b)))
	if _, err := e.w.Write(lenBuf[:n]); err != nil {
		return fmt.Errorf("flowrec: writing record length: %w", err)
	}
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("flowrec: writing record: %w", err)
	}
	e.count++
	return nil
}

// Flush pushes buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// internCap bounds the decoder's string-intern table. A day file
// repeats a few hundred distinct server names / ALPN tags / QUIC
// versions across millions of records; the cap only guards against a
// pathological stream of unique names.
const internCap = 4096

// Decoder reads records written by Encoder.
type Decoder struct {
	r    *bufio.Reader
	buf  []byte
	strs map[string]string // interned ServerName/ALPN/QUICVer values

	// lastSize is the body size of the most recent record, for the
	// store's decoded-byte accounting.
	lastSize uint64
}

// NewDecoder validates the stream header and returns a decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("flowrec: reading magic: %w", err)
	}
	if magic != codecMagic {
		return nil, ErrBadMagic
	}
	return &Decoder{r: br, strs: make(map[string]string, 256)}, nil
}

// Decode reads the next record into r. It returns io.EOF cleanly at
// end of stream.
func (d *Decoder) Decode(r *Record) error {
	size, err := readUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("flowrec: reading record length: %w", err)
	}
	if size > maxEncodedRecord {
		return fmt.Errorf("flowrec: record size %d: %w", size, ErrCorrupt)
	}
	d.lastSize = size
	if cap(d.buf) < int(size) {
		d.buf = make([]byte, size)
	}
	b := d.buf[:size]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return fmt.Errorf("flowrec: reading record body: %w", err)
	}
	return d.decodeBody(b, r)
}

func (d *Decoder) decodeBody(b []byte, r *Record) error {
	if len(b) < 16 {
		return fmt.Errorf("flowrec: record body %d bytes: %w", len(b), ErrCorrupt)
	}
	copy(r.Client[:], b[0:4])
	copy(r.Server[:], b[4:8])
	r.CliPort = binary.BigEndian.Uint16(b[8:10])
	r.SrvPort = binary.BigEndian.Uint16(b[10:12])
	r.Proto = Proto(b[12])
	r.Tech = AccessTech(b[13])
	r.Web = WebProto(b[14])
	r.NameSrc = NameSource(b[15])
	b = b[16:]

	var ok bool
	var u uint64
	next := func() uint64 {
		var n int
		u, n = binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return u
	}
	ok = true
	r.SubID = uint32(next())
	r.Start = time.UnixMilli(int64(next())).UTC()
	r.Duration = time.Duration(next()) * time.Millisecond
	r.PktsUp = uint32(next())
	r.PktsDown = uint32(next())
	r.BytesUp = next()
	r.BytesDown = next()
	nextStr := func() string {
		l := next()
		if !ok || uint64(len(b)) < l {
			ok = false
			return ""
		}
		var s string
		if l > 0 {
			// The map lookup with a string(bytes) key compiles to a
			// no-allocation probe; only a miss materialises the string.
			if hit, found := d.strs[string(b[:l])]; found {
				s = hit
			} else {
				s = string(b[:l])
				if len(d.strs) < internCap {
					d.strs[s] = s
				}
			}
		}
		b = b[l:]
		return s
	}
	r.ServerName = nextStr()
	r.ALPN = nextStr()
	r.QUICVer = nextStr()
	r.RTTMin = time.Duration(next()) * time.Microsecond
	r.RTTAvg = time.Duration(next()) * time.Microsecond
	r.RTTMax = time.Duration(next()) * time.Microsecond
	r.RTTSamples = uint32(next())
	if !ok {
		return fmt.Errorf("flowrec: varint fields: %w", ErrCorrupt)
	}
	return nil
}
