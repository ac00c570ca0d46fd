package flowrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// A raw-DEFLATE (RFC 1951) decoder for v3 column payloads. The column
// body states its inflated size, so the decoder writes straight into a
// destination slice of exactly that size: there is no 32 KiB history
// ring to copy out of, no io.Reader between it and the compressed
// bytes, and a back-reference is a copy within dst. Input is consumed
// through a 64-bit bit buffer refilled eight bytes at a time, and
// Huffman codes resolve through an 11-bit (literal/length) or 8-bit
// (distance) primary table whose long-code entries point into
// subtables.
//
// Acceptance matches compress/flate reading exactly len(dst) bytes and
// then io.EOF: the same header and tree validation (HLIT ≤ 286,
// HDIST ≤ 30, no over-subscribed or incomplete code except a single
// code of length 1), the same symbol checks, and the stream must reach
// the end of its final block with dst exactly full. Bytes after the
// final block are ignored, as compress/flate never reads them.
// FuzzInflate holds the two to that contract.

const (
	litRootBits  = 11
	distRootBits = 8
	preRootBits  = 7 // code-length codes are at most 7 bits: no subtables
	maxCodeLen   = 15
	maxLitCodes  = 286
	maxDistCodes = 30
	numPreCodes  = 19

	// Table sizes: the primary table, then room for the subtables. A
	// subtable of width w ≥ 1 roots a complete subtree, so it holds at
	// least two codes; at most half the symbols can own one, each at
	// most 2^(15-rootBits) wide.
	litTableSize  = 1<<litRootBits + maxLitCodes/2<<(maxCodeLen-litRootBits)
	distTableSize = 1<<distRootBits + maxDistCodes/2<<(maxCodeLen-distRootBits)
	preTableSize  = 1 << preRootBits
)

// A table entry packs everything one decode step needs:
//
//	bits 0..4   bits to consume (the full code length), or for a
//	            subtable pointer the subtable's index width
//	bits 8..11  extra bits following the code (lengths, distances)
//	bits 12..15 kind flags; an entry with none is an invalid code
//	bits 16..31 literal byte, length or distance base, code-length
//	            symbol, or subtable offset
const (
	entSub   = 1 << 12 // pointer into the subtable
	entLit   = 1 << 13 // literal byte (or code-length symbol)
	entMatch = 1 << 14 // length base, or a valid distance base
	entEOB   = 1 << 15 // end of block
)

// litTmpl, distTmpl and preTmpl are the per-symbol entries without
// their code length.
var litTmpl, distTmpl, preTmpl = func() (lit [288]uint32, dist [32]uint32, pre [numPreCodes]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = entLit | uint32(s)<<16
	}
	lit[256] = entEOB
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = entMatch | extra<<8 | base<<16
		base += 1 << extra
	}
	lit[285] = entMatch | 258<<16 // 286 and 287 stay invalid
	base = 1
	for s := 0; s < maxDistCodes; s++ {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		dist[s] = entMatch | extra<<8 | base<<16
		base += 1 << extra
	} // 30 and 31 stay invalid
	for s := range pre {
		pre[s] = entLit | uint32(s)<<16
	}
	return
}()

// A decode table is two-level: its first 1<<rootBits entries are
// indexed by the next rootBits input bits, and a code longer than that
// continues in a subtable stored after them. codeTables holds a
// block's literal/length table followed by its distance table, in one
// fixed-size array so the hot loop keeps a single table pointer and
// indexes it without bounds registers.
type codeTables [litTableSize + distTableSize]uint32

// fixedCodes holds the RFC 1951 §3.2.6 fixed codes.
var fixedCodes = func() *codeTables {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	var five [32]uint8
	for s := range five {
		five[s] = 5
	}
	t := new(codeTables)
	if !buildTable(t[:litTableSize], litRootBits, lens[:], litTmpl[:]) || !buildTable(t[litTableSize:], distRootBits, five[:], distTmpl[:]) {
		panic("flowrec: fixed Huffman tables")
	}
	return t
}()

// buildTable fills t from per-symbol code lengths. It reports false
// for an over-subscribed or incomplete code, except the single code of
// length 1 compress/flate also accepts; an empty code builds a table
// whose every entry is invalid, so it fails only when used.
func buildTable(t []uint32, rootBits uint, lens []uint8, tmpl []uint32) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, maxLen := 1, 0
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false // over-subscribed
		}
		if count[l] > 0 {
			maxLen = l
		}
	}
	rootSize := 1 << rootBits
	if maxLen == 0 || left > 0 {
		if maxLen != 0 && !(maxLen == 1 && count[1] == 1) {
			return false // incomplete
		}
		clear(t[:rootSize]) // unassigned codes decode as invalid
		if maxLen == 0 {
			return true
		}
	}

	// Symbols sorted by (length, symbol): canonical code order.
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	rootMask := rootSize - 1
	rem := count // codes not yet placed, per length
	code, i := 0, 0
	subPrefix, subBits, subOff, next := -1, 0, 0, rootSize
	for l := 1; l <= maxLen; l++ {
		for n := count[l]; n > 0; n-- {
			s := sorted[i]
			i++
			rem[l]--
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			e := tmpl[s] | uint32(l)
			if l <= int(rootBits) {
				for j := rev; j < rootSize; j += 1 << l {
					t[j] = e
				}
				continue
			}
			if prefix := rev & rootMask; prefix != subPrefix {
				// A new subtable, wide enough for the longest code
				// under this prefix: canonical codes sharing a prefix
				// are contiguous, so the remaining counts tell.
				subPrefix, subBits = prefix, l-int(rootBits)
				for room := 1<<subBits - (rem[l] + 1); subBits+int(rootBits) < maxLen && room > 0; {
					subBits++
					room = room<<1 - rem[subBits+int(rootBits)]
				}
				subOff, next = next, next+1<<subBits
				t[prefix] = entSub | uint32(subBits) | uint32(subOff)<<16
			}
			for j := subOff + rev>>rootBits; j < next; j += 1 << (l - int(rootBits)) {
				t[j] = e
			}
		}
		code <<= 1
	}
	return true
}

// inflater is one decode worker's DEFLATE state: the bit reader over
// the current source, and the dynamic-block tables, rebuilt per block.
type inflater struct {
	in   []byte
	ip   int    // next input byte to load; runs past len(in) while zero-padding
	bits uint64 // bit buffer, least significant bit first
	nb   uint   // valid bits in bits

	tabs codeTables
	pre  [preTableSize]uint32
	lens [maxLitCodes + maxDistCodes]uint8
}

var (
	errTruncated = errors.New("unexpected end of stream")
	errOverrun   = errors.New("stream longer than rawLen")
)

// refill tops the bit buffer up to at least 56 bits. Past the end of
// the input it shifts in zero bytes, which any code may peek at but a
// successful decode must never consume (checked where a stream ends);
// it fails once more than a buffer's worth of padding is needed, which
// means padding has certainly been consumed.
func (f *inflater) refill() error {
	if f.ip+8 <= len(f.in) {
		f.bits |= binary.LittleEndian.Uint64(f.in[f.ip:]) << f.nb
		f.ip += int(63-f.nb) >> 3
		f.nb |= 56
		return nil
	}
	for f.nb < 56 {
		if f.ip < len(f.in) {
			f.bits |= uint64(f.in[f.ip]) << f.nb
		} else if f.ip-len(f.in) >= 8 {
			return errTruncated
		}
		f.ip++
		f.nb += 8
	}
	return nil
}

// take consumes n bits (n ≤ 32); the caller has refilled enough.
func (f *inflater) take(n uint) uint32 {
	v := uint32(f.bits & (1<<n - 1))
	f.bits >>= n
	f.nb -= n
	return v
}

// inflate decodes the raw-DEFLATE stream src into dst, which the
// stream must fill exactly.
func (f *inflater) inflate(dst, src []byte) error {
	f.in, f.ip, f.bits, f.nb = src, 0, 0, 0
	defer func() { f.in = nil }()
	op := 0
	for {
		if err := f.refill(); err != nil {
			return err
		}
		final := f.take(1) == 1
		var err error
		switch f.take(2) {
		case 0:
			op, err = f.stored(dst, op)
		case 1:
			op, err = f.codes(dst, op, fixedCodes)
		case 2:
			if err = f.readTables(); err == nil {
				op, err = f.codes(dst, op, &f.tabs)
			}
		default:
			return errors.New("reserved block type")
		}
		if err != nil {
			return err
		}
		if final {
			break
		}
	}
	if f.ip-int(f.nb>>3) > len(f.in) {
		return errTruncated // the final block ended inside the zero padding
	}
	if op != len(dst) {
		return fmt.Errorf("stream ends after %d of %d bytes", op, len(dst))
	}
	return nil
}

// stored copies an uncompressed block: the bit buffer is byte-aligned,
// the whole bytes it still holds are given back, and LEN/NLEN and the
// data are read straight from the input.
func (f *inflater) stored(dst []byte, op int) (int, error) {
	f.take(f.nb & 7)
	f.ip -= int(f.nb >> 3)
	f.bits, f.nb = 0, 0
	if len(f.in)-f.ip < 4 {
		return op, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(f.in[f.ip:]))
	if nn := binary.LittleEndian.Uint16(f.in[f.ip+2:]); nn != ^uint16(n) {
		return op, errors.New("stored block length check")
	}
	f.ip += 4
	if n > len(f.in)-f.ip {
		return op, errTruncated
	}
	if n > len(dst)-op {
		return op, errOverrun
	}
	copy(dst[op:], f.in[f.ip:f.ip+n])
	f.ip += n
	return op + n, nil
}

// preOrder is the order code-length code lengths are sent in.
var preOrder = [numPreCodes]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readTables reads a dynamic block's header and builds its
// literal/length and distance tables.
func (f *inflater) readTables() error {
	if err := f.refill(); err != nil {
		return err
	}
	nlit := int(f.take(5)) + 257
	ndist := int(f.take(5)) + 1
	npre := int(f.take(4)) + 4
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return fmt.Errorf("%d literal/length or %d distance codes", nlit, ndist)
	}
	var preLens [numPreCodes]uint8
	for i := 0; i < npre; i++ {
		if f.nb < 3 {
			if err := f.refill(); err != nil {
				return err
			}
		}
		preLens[preOrder[i]] = uint8(f.take(3))
	}
	if !buildTable(f.pre[:], preRootBits, preLens[:], preTmpl[:]) {
		return errors.New("bad code-length code")
	}

	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if f.nb < maxCodeLen+7 {
			if err := f.refill(); err != nil {
				return err
			}
		}
		e := f.pre[f.bits&(1<<preRootBits-1)]
		if e&entLit == 0 {
			return errors.New("bad code-length symbol")
		}
		f.take(uint(e & 31))
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return errors.New("repeat with no previous length")
			}
			rep, val = 3+int(f.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(f.take(3))
		default:
			rep = 11 + int(f.take(7))
		}
		if i+rep > len(lens) {
			return errors.New("code-length run past HLIT+HDIST")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = val
		}
	}
	if !buildTable(f.tabs[:litTableSize], litRootBits, lens[:nlit], litTmpl[:]) ||
		!buildTable(f.tabs[litTableSize:], distRootBits, lens[nlit:], distTmpl[:]) {
		return errors.New("bad literal/length or distance code")
	}
	return nil
}

// codes decodes one Huffman-coded block into dst[op:], returning the
// new output position. It is the hot loop: the bit reader lives in
// locals, every iteration starts from a ≥ 56-bit buffer, and one
// length/distance pair needs at most 48 bits.
func (f *inflater) codes(dst []byte, op int, t *codeTables) (int, error) {
	in, ip, bitbuf, nb := f.in, f.ip, f.bits, f.nb
	tab := t[:] // one nil check here, none per symbol
	for {
		if nb >= 48 {
			// enough for any symbol: a length/distance pair is ≤ 48 bits
		} else if ip+8 <= len(in) {
			bitbuf |= binary.LittleEndian.Uint64(in[ip:]) << nb
			ip += int(63-nb) >> 3
			nb |= 56
		} else {
			f.ip, f.bits, f.nb = ip, bitbuf, nb
			if err := f.refill(); err != nil {
				return op, err
			}
			ip, bitbuf, nb = f.ip, f.bits, f.nb
		}
		e := tab[bitbuf&(1<<litRootBits-1)]
		if e&entSub != 0 {
			e = tab[int(e>>16)+int(bitbuf>>litRootBits)&(1<<(e&31)-1)]
		}
		n := uint(e & 31)
		bitbuf >>= n
		nb -= n
		if e&entLit != 0 {
			if op >= len(dst) {
				return op, errOverrun
			}
			dst[op] = byte(e >> 16)
			op++
			continue
		}
		if e&entMatch == 0 {
			if e&entEOB != 0 {
				break
			}
			return op, errors.New("invalid literal/length code")
		}
		x := uint(e>>8) & 15
		length := int(e>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nb -= x

		d := tab[litTableSize+bitbuf&(1<<distRootBits-1)]
		if d&entSub != 0 {
			d = tab[litTableSize+int(d>>16)+int(bitbuf>>distRootBits)&(1<<(d&31)-1)]
		}
		if d&entMatch == 0 {
			return op, errors.New("invalid distance code")
		}
		n = uint(d & 31)
		bitbuf >>= n
		nb -= n
		x = uint(d>>8) & 15
		dist := int(d>>16) + int(bitbuf&(1<<x-1))
		bitbuf >>= x
		nb -= x

		if dist > op {
			return op, fmt.Errorf("distance %d beyond %d bytes of output", dist, op)
		}
		if length > len(dst)-op {
			return op, errOverrun
		}
		end := op + length
		switch src := op - dist; {
		case dist >= 8 && end+8 <= len(dst):
			// Eight bytes at a time. Each read ends at or before the
			// write it feeds, and the last write may spill up to seven
			// bytes past end, which later output overwrites.
			for ; op < end; op, src = op+8, src+8 {
				binary.LittleEndian.PutUint64(dst[op:], binary.LittleEndian.Uint64(dst[src:]))
			}
			op = end
		case dist >= length:
			copy(dst[op:end], dst[src:])
			op = end
		case length <= 32:
			for ; op < end; op, src = op+1, src+1 {
				dst[op] = dst[src]
			}
		default:
			// A long overlapping run: each copy doubles the period it
			// copies from.
			for op < end {
				op += copy(dst[op:end], dst[src:op])
			}
		}
	}
	f.ip, f.bits, f.nb = ip, bitbuf, nb
	return op, nil
}
