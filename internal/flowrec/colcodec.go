package flowrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/zpool"
)

// The v3 columnar codec. A day file is a raw (not gzip-wrapped) stream
// of blocks, each ~colBlockRows records transposed into per-column
// streams, with compression INSIDE the column framing:
//
//	file  := "efl3" | block* | terminator
//	block := rowCount uvarint            (1..maxBlockRows)
//	         stats                       (plain — readable without inflate)
//	         colCount uvarint            (= NumColumns)
//	         colCount × (totalLen uvarint, body)
//	body  := crc32c (4 bytes LE, over the rest of the body)
//	         [dictLen uvarint, dict]     (dictionary columns only, plain)
//	         rawLen uvarint              (inflated payload size)
//	         compLen uvarint             (0 = payload stored raw)
//	         payload                     (flate if compLen>0, else raw)
//	terminator := 0 uvarint | blockCount uvarint | totalRows uvarint
//
// Columns appear in Column ID order. Fixed-width columns (addresses,
// ports, enum bytes) are raw row-major arrays; counters are plain
// uvarints; Start is a zigzag delta varint chain (records arrive in
// near-sorted time order, so deltas are tiny); ServerName/ALPN/QUICVer
// are per-block dictionaries (uvarint entry count, length-prefixed
// entries, then one uvarint index per row in the payload).
//
// Keeping the stats and dictionaries outside the compressed payload
// means predicate pushdown skips a block — and projection skips a
// column — by Discarding totalLen bytes without ever inflating them,
// and because each column inflates independently the read path can fan
// block decompression out over workers instead of queuing behind one
// gzip stream. The per-column crc32c (Castagnoli) covers the bytes a
// scan actually consumes; pruned bytes are deliberately unverified —
// damage there cannot affect the result. The terminator's block and row
// counts are what let a reader tell a clean end from a truncated tail.

// colMagicV3 identifies a v3 file — peeked raw, since v3 files are not
// gzip-wrapped.
var colMagicV3 = [4]byte{'e', 'f', 'l', '3'}

// crcTab is the Castagnoli table shared by the write and read
// paths (hardware-accelerated on amd64/arm64).
var crcTab = crc32.MakeTable(crc32.Castagnoli)

const (
	// colBlockRows is the writer's rows-per-block target.
	colBlockRows = 8192
	// maxBlockRows bounds a decoded block; larger row counts are
	// corruption, not data.
	maxBlockRows = 1 << 20
	// maxColumnBytes bounds one column payload (the writer stays far
	// below: 8k rows × ~10 bytes).
	maxColumnBytes = 1 << 26
	// maxDictEntryLen bounds one dictionary string, mirroring the v1
	// per-record bound: a hostile server name must fail at write time,
	// not poison the day for readers.
	maxDictEntryLen = 1 << 15
	// colCompressMin is the smallest column payload worth deflating;
	// below it the flate header overhead beats any win.
	colCompressMin = 64
)

// blockStats is the per-block min/max footer for the predicate
// columns. Start bounds are signed (UnixMilli) varints; the rest are
// uvarints.
type blockStats struct {
	startMin, startMax     int64 // UnixMilli
	srvPortMin, srvPortMax uint64
	protoMin, protoMax     uint64
	techMin, techMax       uint64
}

func (st *blockStats) observe(r *Record) {
	ms := r.Start.UnixMilli()
	if ms < st.startMin {
		st.startMin = ms
	}
	if ms > st.startMax {
		st.startMax = ms
	}
	if v := uint64(r.SrvPort); v < st.srvPortMin {
		st.srvPortMin = v
	}
	if v := uint64(r.SrvPort); v > st.srvPortMax {
		st.srvPortMax = v
	}
	if v := uint64(r.Proto); v < st.protoMin {
		st.protoMin = v
	}
	if v := uint64(r.Proto); v > st.protoMax {
		st.protoMax = v
	}
	if v := uint64(r.Tech); v < st.techMin {
		st.techMin = v
	}
	if v := uint64(r.Tech); v > st.techMax {
		st.techMax = v
	}
}

// reset prepares the stats for a fresh block.
func (st *blockStats) reset() {
	*st = blockStats{
		startMin: 1<<63 - 1, startMax: -(1 << 63),
		srvPortMin: 1<<64 - 1,
		protoMin:   1<<64 - 1,
		techMin:    1<<64 - 1,
	}
}

func (st *blockStats) append(b []byte) []byte {
	b = binary.AppendVarint(b, st.startMin)
	b = binary.AppendVarint(b, st.startMax)
	b = binary.AppendUvarint(b, st.srvPortMin)
	b = binary.AppendUvarint(b, st.srvPortMax)
	b = binary.AppendUvarint(b, st.protoMin)
	b = binary.AppendUvarint(b, st.protoMax)
	b = binary.AppendUvarint(b, st.techMin)
	b = binary.AppendUvarint(b, st.techMax)
	return b
}

func (st *blockStats) read(br *bufio.Reader) error {
	var err error
	read := func(dst *uint64) {
		if err != nil {
			return
		}
		*dst, err = readUvarint(br)
	}
	readS := func(dst *int64) {
		if err != nil {
			return
		}
		*dst, err = readVarint(br)
	}
	readS(&st.startMin)
	readS(&st.startMax)
	read(&st.srvPortMin)
	read(&st.srvPortMax)
	read(&st.protoMin)
	read(&st.protoMax)
	read(&st.techMin)
	read(&st.techMax)
	return err
}

// dictCols maps the dictionary-encoded columns to their slot in the
// encoder's dictionary state.
func dictSlot(c Column) int {
	switch c {
	case ColServerName:
		return 0
	case ColALPN:
		return 1
	case ColQUICVer:
		return 2
	}
	return -1
}

// colEncoder writes the v3 columnar stream. It satisfies the same
// surface DayWriter needs from the v1 Encoder.
type colEncoder struct {
	w      *bufio.Writer
	count  uint64
	rows   int
	blocks uint64
	sealed bool // terminator written; further Flushes are bufio-only

	cols      [NumColumns][]byte // per-column row streams
	dicts     [3]map[string]uint64
	dictEnts  [3][]byte // length-prefixed entry stream, insertion order
	dictN     [3]uint64
	prevStart int64
	stats     blockStats

	pre  []byte       // scratch: column body head (crc+dict+lengths)
	comp appendWriter // scratch: deflated column payload
}

// newColEncoder writes the stream header and returns an encoder. The
// blocks compress themselves, so the caller must NOT wrap w in gzip.
func newColEncoder(w io.Writer) (*colEncoder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(colMagicV3[:]); err != nil {
		return nil, fmt.Errorf("flowrec: writing magic: %w", err)
	}
	e := &colEncoder{w: bw}
	e.resetBlock()
	return e, nil
}

func (e *colEncoder) resetBlock() {
	e.rows = 0
	e.prevStart = 0
	e.stats.reset()
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	for i := range e.dicts {
		// Keep the allocated map and drop its entries: a day writes
		// thousands of blocks, and re-making three maps per block was a
		// measurable slice of the encode allocation profile.
		clear(e.dicts[i])
		e.dictEnts[i] = e.dictEnts[i][:0]
		e.dictN[i] = 0
	}
}

// appendWriter is an io.Writer that appends into a reusable slice —
// the deflate sink for column payloads.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Count reports how many records were encoded.
func (e *colEncoder) Count() uint64 { return e.count }

// dictIndex interns s in dictionary slot j and returns its index.
func (e *colEncoder) dictIndex(j int, s string) uint64 {
	if e.dicts[j] == nil {
		e.dicts[j] = make(map[string]uint64, 64)
	}
	if idx, ok := e.dicts[j][s]; ok {
		return idx
	}
	idx := e.dictN[j]
	e.dicts[j][s] = idx
	e.dictN[j] = idx + 1
	e.dictEnts[j] = binary.AppendUvarint(e.dictEnts[j], uint64(len(s)))
	e.dictEnts[j] = append(e.dictEnts[j], s...)
	return idx
}

// Encode appends one record to the current block, flushing the block
// when it reaches colBlockRows. Oversized strings are rejected at
// write time (ErrOversize) — the v1 decoder would quarantine the
// whole day over them, so they must never reach disk.
func (e *colEncoder) Encode(r *Record) error {
	if len(r.ServerName) > maxDictEntryLen || len(r.ALPN) > maxDictEntryLen || len(r.QUICVer) > maxDictEntryLen {
		mOversizeRecords.Inc()
		return fmt.Errorf("flowrec: record string field over %d bytes: %w", maxDictEntryLen, ErrOversize)
	}
	e.cols[ColClient] = append(e.cols[ColClient], r.Client[:]...)
	e.cols[ColServer] = append(e.cols[ColServer], r.Server[:]...)
	e.cols[ColCliPort] = binary.BigEndian.AppendUint16(e.cols[ColCliPort], r.CliPort)
	e.cols[ColSrvPort] = binary.BigEndian.AppendUint16(e.cols[ColSrvPort], r.SrvPort)
	e.cols[ColProto] = append(e.cols[ColProto], byte(r.Proto))
	e.cols[ColTech] = append(e.cols[ColTech], byte(r.Tech))
	e.cols[ColWeb] = append(e.cols[ColWeb], byte(r.Web))
	e.cols[ColNameSrc] = append(e.cols[ColNameSrc], byte(r.NameSrc))
	e.cols[ColSubID] = binary.AppendUvarint(e.cols[ColSubID], uint64(r.SubID))
	ms := r.Start.UnixMilli()
	e.cols[ColStart] = binary.AppendVarint(e.cols[ColStart], ms-e.prevStart)
	e.prevStart = ms
	e.cols[ColDuration] = binary.AppendUvarint(e.cols[ColDuration], uint64(r.Duration/time.Millisecond))
	e.cols[ColPktsUp] = binary.AppendUvarint(e.cols[ColPktsUp], uint64(r.PktsUp))
	e.cols[ColPktsDown] = binary.AppendUvarint(e.cols[ColPktsDown], uint64(r.PktsDown))
	e.cols[ColBytesUp] = binary.AppendUvarint(e.cols[ColBytesUp], r.BytesUp)
	e.cols[ColBytesDown] = binary.AppendUvarint(e.cols[ColBytesDown], r.BytesDown)
	e.cols[ColServerName] = binary.AppendUvarint(e.cols[ColServerName], e.dictIndex(0, r.ServerName))
	e.cols[ColALPN] = binary.AppendUvarint(e.cols[ColALPN], e.dictIndex(1, r.ALPN))
	e.cols[ColQUICVer] = binary.AppendUvarint(e.cols[ColQUICVer], e.dictIndex(2, r.QUICVer))
	e.cols[ColRTTMin] = binary.AppendUvarint(e.cols[ColRTTMin], uint64(r.RTTMin/time.Microsecond))
	e.cols[ColRTTAvg] = binary.AppendUvarint(e.cols[ColRTTAvg], uint64(r.RTTAvg/time.Microsecond))
	e.cols[ColRTTMax] = binary.AppendUvarint(e.cols[ColRTTMax], uint64(r.RTTMax/time.Microsecond))
	e.cols[ColRTTSamples] = binary.AppendUvarint(e.cols[ColRTTSamples], uint64(r.RTTSamples))
	e.stats.observe(r)
	e.rows++
	e.count++
	if e.rows >= colBlockRows {
		return e.flushBlock()
	}
	return nil
}

// flushBlock writes the buffered rows as one block.
func (e *colEncoder) flushBlock() error {
	if e.rows == 0 {
		return nil
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(e.rows))
	hdr = e.stats.append(hdr)
	hdr = binary.AppendUvarint(hdr, uint64(NumColumns))
	if _, err := e.w.Write(hdr); err != nil {
		return fmt.Errorf("flowrec: writing block header: %w", err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for c := 0; c < NumColumns; c++ {
		if err := e.writeCol(Column(c), lenBuf[:]); err != nil {
			return err
		}
	}
	e.blocks++
	e.resetBlock()
	return nil
}

// writeCol writes one column: length-prefixed body of crc | [dict] |
// rawLen | compLen | payload, with the payload deflated only when that
// actually shrinks it.
func (e *colEncoder) writeCol(col Column, lenBuf []byte) error {
	raw := e.cols[col]
	// Body head, with 4 bytes reserved up front for the crc.
	pre := append(e.pre[:0], 0, 0, 0, 0)
	if j := dictSlot(col); j >= 0 {
		dictLen := uvarintLen(e.dictN[j]) + len(e.dictEnts[j])
		pre = binary.AppendUvarint(pre, uint64(dictLen))
		pre = binary.AppendUvarint(pre, e.dictN[j])
		pre = append(pre, e.dictEnts[j]...)
	}
	stored := raw
	pre = binary.AppendUvarint(pre, uint64(len(raw)))
	if comp := e.compress(raw); comp != nil {
		pre = binary.AppendUvarint(pre, uint64(len(comp)))
		stored = comp
	} else {
		pre = binary.AppendUvarint(pre, 0) // stored raw
	}
	e.pre = pre
	crc := crc32.Update(crc32.Checksum(pre[4:], crcTab), crcTab, stored)
	binary.LittleEndian.PutUint32(pre[:4], crc)
	n := binary.PutUvarint(lenBuf, uint64(len(pre)+len(stored)))
	if _, err := e.w.Write(lenBuf[:n]); err != nil {
		return fmt.Errorf("flowrec: writing column length: %w", err)
	}
	if _, err := e.w.Write(pre); err != nil {
		return fmt.Errorf("flowrec: writing column: %w", err)
	}
	if _, err := e.w.Write(stored); err != nil {
		return fmt.Errorf("flowrec: writing column: %w", err)
	}
	return nil
}

// compress deflates raw into the encoder's scratch, returning nil when
// storing raw is at least as small (or the payload is too tiny to be
// worth the flate header).
func (e *colEncoder) compress(raw []byte) []byte {
	if len(raw) < colCompressMin {
		return nil
	}
	e.comp.b = e.comp.b[:0]
	fw := zpool.FlateWriter(&e.comp)
	_, werr := fw.Write(raw)
	cerr := fw.Close()
	zpool.PutFlateWriter(fw)
	if werr != nil || cerr != nil || len(e.comp.b) >= len(raw) {
		return nil
	}
	return e.comp.b
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Flush seals the current block and the stream: the terminator's
// block/row counts are what lets a reader distinguish a clean end from
// a truncated tail.
func (e *colEncoder) Flush() error {
	if err := e.flushBlock(); err != nil {
		return err
	}
	if !e.sealed {
		e.sealed = true
		var t []byte
		t = binary.AppendUvarint(t, 0)
		t = binary.AppendUvarint(t, e.blocks)
		t = binary.AppendUvarint(t, e.count)
		if _, err := e.w.Write(t); err != nil {
			return fmt.Errorf("flowrec: writing terminator: %w", err)
		}
	}
	return e.w.Flush()
}

// colBlock is one raw block read off a v3 stream: the stats, plus the
// still-compressed body of every column the scan needs (nil entries
// were pruned). Column bodies live in pooled buffers; release returns
// them once the block is decoded.
type colBlock struct {
	rows  int
	stats blockStats
	data  [NumColumns][]byte
	bufs  [NumColumns]*[]byte
}

// release returns the block's pooled column buffers. The caller must
// be done with data — decodeBlock copies everything it materialises,
// so after it returns the block is safe to release.
func (b *colBlock) release() {
	for i := range b.bufs {
		if b.bufs[i] != nil {
			zpool.PutBuf(b.bufs[i])
			b.bufs[i] = nil
		}
		b.data[i] = nil
	}
}

// colReader reads raw blocks off a v3 stream, pruning columns and
// skipping stat-excluded blocks. It also accumulates the scan-level
// byte accounting the store publishes.
type colReader struct {
	br   *bufio.Reader
	need ColumnSet
	pred *Pred

	rowsSeen                  uint64 // all blocks, skipped included (terminator check)
	blocksRead, blocksSkipped uint64
	bytesDecoded, bytesPruned uint64
}

// corruptf wraps a structural decode failure as ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("flowrec: "+format+": %w", append(args, ErrCorrupt)...)
}

// readUvarint is binary.ReadUvarint with an overlong varint reported
// as damage (ErrCorrupt) rather than as an unclassified error: on disk,
// a varint past 64 bits can only be a damaged byte.
func readUvarint(br io.ByteReader) (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return x, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
	}
	return x, corruptf("varint overflows 64 bits")
}

// readVarint is readUvarint for a zigzag-encoded signed varint.
func readVarint(br io.ByteReader) (int64, error) {
	ux, err := readUvarint(br)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// blockEOF maps an EOF inside a block to ErrUnexpectedEOF so a
// truncated file classifies as stream damage, like the v1 decoder.
func blockEOF(err error) error {
	if err == io.EOF {
		return fmt.Errorf("flowrec: truncated block: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// next returns the next block the scan needs. Blocks excluded by the
// predicate stats are consumed, counted and skipped internally, by
// Discarding their compressed bytes without ever inflating them. A
// clean end of stream returns (nil, io.EOF).
func (cr *colReader) next() (*colBlock, error) {
	for {
		rows, err := readUvarint(cr.br)
		if err != nil {
			if err == io.EOF {
				// The stream must end with its terminator; a bare EOF at
				// a block boundary is a truncated file.
				return nil, fmt.Errorf("flowrec: missing v3 terminator: %w", io.ErrUnexpectedEOF)
			}
			return nil, blockEOF(err)
		}
		if rows == 0 {
			return nil, cr.readTerminator()
		}
		if rows > maxBlockRows {
			return nil, corruptf("block of %d rows", rows)
		}
		b := &colBlock{rows: int(rows)}
		if err := b.stats.read(cr.br); err != nil {
			b.release()
			return nil, blockEOF(err)
		}
		ncols, err := readUvarint(cr.br)
		if err != nil {
			b.release()
			return nil, blockEOF(err)
		}
		if int(ncols) != NumColumns {
			b.release()
			return nil, corruptf("block with %d columns", ncols)
		}
		skipAll := cr.pred != nil && !cr.pred.matchStats(&b.stats)
		for c := 0; c < NumColumns; c++ {
			n, err := readUvarint(cr.br)
			if err != nil {
				b.release()
				return nil, blockEOF(err)
			}
			if n > maxColumnBytes {
				b.release()
				return nil, corruptf("column %d of %d bytes", c, n)
			}
			if skipAll || !cr.need.Has(Column(c)) {
				if _, err := cr.br.Discard(int(n)); err != nil {
					b.release()
					return nil, blockEOF(err)
				}
				cr.bytesPruned += n
				continue
			}
			bp := zpool.Buf(int(n))
			if _, err := io.ReadFull(cr.br, *bp); err != nil {
				zpool.PutBuf(bp)
				b.release()
				return nil, blockEOF(err)
			}
			b.data[c] = *bp
			b.bufs[c] = bp
			// decoded_bytes counts what this column will materialise
			// (dict part + inflated payload), not its compressed size.
			dn, derr := v3DecodedSize(Column(c), *bp, rows)
			if derr != nil {
				b.release()
				return nil, derr
			}
			cr.bytesDecoded += dn
		}
		cr.rowsSeen += rows
		if skipAll {
			b.release()
			cr.blocksSkipped++
			continue
		}
		cr.blocksRead++
		return b, nil
	}
}

// readTerminator validates the v3 end-of-stream marker against what
// the scan actually consumed, then requires a hard EOF. It returns
// io.EOF on a clean end.
func (cr *colReader) readTerminator() error {
	blocks, err := readUvarint(cr.br)
	if err != nil {
		return blockEOF(err)
	}
	rows, err := readUvarint(cr.br)
	if err != nil {
		return blockEOF(err)
	}
	if got := cr.blocksRead + cr.blocksSkipped; blocks != got || rows != cr.rowsSeen {
		return corruptf("terminator claims %d blocks/%d rows, stream had %d/%d",
			blocks, rows, got, cr.rowsSeen)
	}
	switch _, err := cr.br.ReadByte(); err {
	case io.EOF:
		return io.EOF // clean
	case nil:
		return corruptf("trailing data after terminator")
	default:
		return blockEOF(err)
	}
}

// v3DecodedSize reports how many bytes a v3 column body materialises
// when decoded: the plain dictionary part plus the inflated payload.
// Every column spends at least one payload byte per row, and a payload
// holds no more than its bytes can carry: a stored one exactly its
// length, a deflated one at most 1032 bytes a byte (a 258-byte match
// in two bits). A row count the payload cannot reach is damage, caught
// here before the scan sizes the block's records by that count.
func v3DecodedSize(col Column, body []byte, rows uint64) (uint64, error) {
	if len(body) < 4 {
		return 0, corruptf("column %d: short body", col)
	}
	body = body[4:] // crc
	var total uint64
	if dictSlot(col) >= 0 {
		dl, n := binary.Uvarint(body)
		if n <= 0 || dl > uint64(len(body)-n) {
			return 0, corruptf("column %d: bad dict length", col)
		}
		total += dl
		body = body[n+int(dl):]
	}
	rawLen, n := binary.Uvarint(body)
	if n <= 0 || rawLen > maxColumnBytes {
		return 0, corruptf("column %d: bad raw length", col)
	}
	body = body[n:]
	compLen, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, corruptf("column %d: bad compressed length", col)
	}
	carried := uint64(len(body) - n)
	if compLen > 0 {
		carried = 1032 * compLen
	}
	if rawLen < rows || rawLen > carried {
		return 0, corruptf("column %d: %d bytes for %d rows in a %d-byte payload", col, rawLen, rows, len(body)-n)
	}
	return total + rawLen, nil
}

// colInflater is one decode worker's reusable v3 state: the DEFLATE
// decoder and the scratch the inflated column lands in. Each column is
// fully consumed before the next, so one scratch per worker suffices;
// everything materialised out of it is copied or interned.
type colInflater struct {
	fl  inflater
	out []byte
}

// column verifies and unpacks one column body into the flat layout
// decodeBlock walks ([dict] + rows), inflating when the payload was
// deflated and returning the stored bytes zero-copy when it was not.
func (inf *colInflater) column(col Column, body []byte) ([]byte, error) {
	c := int(col)
	if len(body) < 4 {
		return nil, corruptf("column %d: short body", c)
	}
	want := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if crc32.Checksum(body, crcTab) != want {
		return nil, corruptf("column %d: checksum mismatch", c)
	}
	out := inf.out[:0]
	if dictSlot(col) >= 0 {
		dl, n := binary.Uvarint(body)
		if n <= 0 || dl > uint64(len(body)-n) {
			return nil, corruptf("column %d: bad dict length", c)
		}
		body = body[n:]
		out = append(out, body[:dl]...)
		body = body[dl:]
	}
	rawLen, n := binary.Uvarint(body)
	if n <= 0 || rawLen > maxColumnBytes {
		return nil, corruptf("column %d: bad raw length", c)
	}
	body = body[n:]
	compLen, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, corruptf("column %d: bad compressed length", c)
	}
	body = body[n:]
	if compLen == 0 { // stored raw
		if uint64(len(body)) != rawLen {
			return nil, corruptf("column %d: stored %d bytes, want %d", c, len(body), rawLen)
		}
		if len(out) == 0 {
			return body, nil // non-dict column: hand back the stored bytes directly
		}
		out = append(out, body...)
		inf.out = out
		return out, nil
	}
	if uint64(len(body)) != compLen {
		return nil, corruptf("column %d: compressed %d bytes, want %d", c, len(body), compLen)
	}
	head := len(out)
	if cap(out) < head+int(rawLen) {
		grown := make([]byte, head+int(rawLen))
		copy(grown, out)
		out = grown
	} else {
		out = out[:head+int(rawLen)]
	}
	if err := inf.fl.inflate(out[head:], body); err != nil {
		return nil, corruptf("column %d: inflate: %v", c, err)
	}
	inf.out = out
	return out, nil
}

// decodeBlock materialises the needed columns of b into recs, which
// must have length b.rows. Unneeded fields keep their zero values.
// strs interns dictionary strings across blocks; inf is the worker's
// inflater.
func decodeBlock(b *colBlock, need ColumnSet, recs []Record, strs map[string]string, inf *colInflater) error {
	rows := b.rows
	for c := 0; c < NumColumns; c++ {
		col := Column(c)
		if !need.Has(col) {
			continue
		}
		p, err := inf.column(col, b.data[c])
		if err != nil {
			return err
		}
		switch col {
		case ColClient, ColServer:
			if len(p) != rows*4 {
				return corruptf("column %d: %d bytes for %d rows", c, len(p), rows)
			}
			for i := 0; i < rows; i++ {
				if col == ColClient {
					copy(recs[i].Client[:], p[i*4:])
				} else {
					copy(recs[i].Server[:], p[i*4:])
				}
			}
		case ColCliPort, ColSrvPort:
			if len(p) != rows*2 {
				return corruptf("column %d: %d bytes for %d rows", c, len(p), rows)
			}
			for i := 0; i < rows; i++ {
				v := binary.BigEndian.Uint16(p[i*2:])
				if col == ColCliPort {
					recs[i].CliPort = v
				} else {
					recs[i].SrvPort = v
				}
			}
		case ColProto, ColTech, ColWeb, ColNameSrc:
			if len(p) != rows {
				return corruptf("column %d: %d bytes for %d rows", c, len(p), rows)
			}
			for i := 0; i < rows; i++ {
				switch col {
				case ColProto:
					recs[i].Proto = Proto(p[i])
				case ColTech:
					recs[i].Tech = AccessTech(p[i])
				case ColWeb:
					recs[i].Web = WebProto(p[i])
				case ColNameSrc:
					recs[i].NameSrc = NameSource(p[i])
				}
			}
		case ColStart:
			var prev int64
			for i := 0; i < rows; i++ {
				d, n := binary.Varint(p)
				if n <= 0 {
					return corruptf("column %d: bad varint", c)
				}
				p = p[n:]
				prev += d
				recs[i].Start = time.UnixMilli(prev).UTC()
			}
			if len(p) != 0 {
				return corruptf("column %d: %d trailing bytes", c, len(p))
			}
		case ColServerName, ColALPN, ColQUICVer:
			entries, rest, err := decodeDict(c, p, rows, strs)
			if err != nil {
				return err
			}
			p = rest
			for i := 0; i < rows; i++ {
				idx, n := binary.Uvarint(p)
				if n <= 0 {
					return corruptf("column %d: bad varint", c)
				}
				p = p[n:]
				if idx >= uint64(len(entries)) {
					return corruptf("column %d: dict index %d of %d", c, idx, len(entries))
				}
				switch col {
				case ColServerName:
					recs[i].ServerName = entries[idx]
				case ColALPN:
					recs[i].ALPN = entries[idx]
				case ColQUICVer:
					recs[i].QUICVer = entries[idx]
				}
			}
			if len(p) != 0 {
				return corruptf("column %d: %d trailing bytes", c, len(p))
			}
		default: // plain uvarint counters
			for i := 0; i < rows; i++ {
				v, n := binary.Uvarint(p)
				if n <= 0 {
					return corruptf("column %d: bad varint", c)
				}
				p = p[n:]
				switch col {
				case ColSubID:
					recs[i].SubID = uint32(v)
				case ColDuration:
					recs[i].Duration = time.Duration(v) * time.Millisecond
				case ColPktsUp:
					recs[i].PktsUp = uint32(v)
				case ColPktsDown:
					recs[i].PktsDown = uint32(v)
				case ColBytesUp:
					recs[i].BytesUp = v
				case ColBytesDown:
					recs[i].BytesDown = v
				case ColRTTMin:
					recs[i].RTTMin = time.Duration(v) * time.Microsecond
				case ColRTTAvg:
					recs[i].RTTAvg = time.Duration(v) * time.Microsecond
				case ColRTTMax:
					recs[i].RTTMax = time.Duration(v) * time.Microsecond
				case ColRTTSamples:
					recs[i].RTTSamples = uint32(v)
				}
			}
			if len(p) != 0 {
				return corruptf("column %d: %d trailing bytes", c, len(p))
			}
		}
	}
	return nil
}

// decodeDict reads a column's per-block dictionary, interning entries
// in strs, and returns the entries plus the remaining (row index)
// payload.
func decodeDict(c int, p []byte, rows int, strs map[string]string) ([]string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, nil, corruptf("column %d: bad dict count", c)
	}
	p = p[w:]
	if n > uint64(rows) {
		return nil, nil, corruptf("column %d: dict of %d entries for %d rows", c, n, rows)
	}
	entries := make([]string, n)
	for i := range entries {
		l, w := binary.Uvarint(p)
		if w <= 0 {
			return nil, nil, corruptf("column %d: bad dict entry length", c)
		}
		p = p[w:]
		if l > maxDictEntryLen || uint64(len(p)) < l {
			return nil, nil, corruptf("column %d: dict entry of %d bytes", c, l)
		}
		if l > 0 {
			if hit, ok := strs[string(p[:l])]; ok {
				entries[i] = hit
			} else {
				s := string(p[:l])
				if len(strs) < internCap {
					strs[s] = s
				}
				entries[i] = s
			}
		}
		p = p[l:]
	}
	return entries, p, nil
}
