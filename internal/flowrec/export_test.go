package flowrec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
)

// Inflater exposes the v3 column DEFLATE decoder to the external
// tests: FuzzInflate holds it to compress/flate, and
// BenchmarkInflateColumns times the two side by side.
type Inflater struct{ f inflater }

// Inflate decodes the raw-DEFLATE stream src into dst, which the
// stream must fill exactly.
func (i *Inflater) Inflate(dst, src []byte) error { return i.f.inflate(dst, src) }

// RawColumns encodes recs (fewer than one block's worth) and returns
// each column's uncompressed v3 payload — the bytes the writer hands
// to flate. Dictionary columns hold their row indexes only.
func RawColumns(recs []Record) ([NumColumns][]byte, error) {
	var cols [NumColumns][]byte
	e, err := newColEncoder(io.Discard)
	if err != nil {
		return cols, err
	}
	for i := range recs[:min(len(recs), colBlockRows-1)] {
		if err := e.Encode(&recs[i]); err != nil {
			return cols, err
		}
	}
	for c := range cols {
		cols[c] = append([]byte(nil), e.cols[c]...)
	}
	return cols, nil
}

// Payload is one deflated v3 column payload and its inflated size.
type Payload struct {
	Raw  int
	Comp []byte
}

// DeflatedPayloads walks a v3 day file and returns every deflated
// column payload, per column (stored payloads inflate nothing and are
// left out), plus the day's row count.
func DeflatedPayloads(path string) ([NumColumns][]Payload, uint64, error) {
	var cols [NumColumns][]Payload
	f, err := os.Open(path)
	if err != nil {
		return cols, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, err := br.Discard(4); err != nil {
		return cols, 0, err
	}
	cr := &colReader{br: br, need: AllColumns}
	for {
		b, err := cr.next()
		if err == io.EOF {
			return cols, cr.rowsSeen, nil
		}
		if err != nil {
			return cols, 0, err
		}
		for c := range cols {
			body := b.data[c][4:] // crc
			if dictSlot(Column(c)) >= 0 {
				dl, n := binary.Uvarint(body)
				body = body[n+int(dl):]
			}
			rawLen, n := binary.Uvarint(body)
			body = body[n:]
			if compLen, n := binary.Uvarint(body); compLen > 0 {
				cols[c] = append(cols[c], Payload{Raw: int(rawLen), Comp: bytes.Clone(body[n:])})
			}
		}
		b.release()
	}
}
