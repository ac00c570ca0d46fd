// Package zpool pools compression codecs and scratch buffers for the
// hot read/write paths. A gzip or flate coder carries large internal
// state (32–256 KiB of window and Huffman tables); constructing one
// per file — or worse, per block — is what used to dominate the
// allocation profile of a five-year lake scan. Every pool here hands
// back a Reset coder bound to the caller's stream, and the matching
// Put returns it for the next caller. Putting a coder back while its
// underlying stream is still in use is a caller bug; the pools never
// retain the stream, only the coder.
package zpool

import (
	"compress/flate"
	"compress/gzip"
	"io"
	"sync"
)

// Gzip writer pools, one per compression level actually used in the
// tree: BestSpeed for day logs and checkpoint frames (write throughput
// bound; a checkpoint's bytes die at its next rewrite), the default
// level for the agg, rollup and cursor files (small, written once and
// read many times).
var (
	gzWriterSpeed   = sync.Pool{New: func() any { w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed); return w }}
	gzWriterDefault = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzReaders       sync.Pool // *gzip.Reader, nil-state tolerated via Reset
	flateWriters    = sync.Pool{New: func() any { w, _ := flate.NewWriter(io.Discard, flate.BestSpeed); return w }}
)

// GzipWriterSpeed returns a pooled gzip writer at BestSpeed, reset to
// write to w. Return it with PutGzipWriterSpeed after Close.
func GzipWriterSpeed(w io.Writer) *gzip.Writer {
	gz := gzWriterSpeed.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// PutGzipWriterSpeed returns a BestSpeed writer to the pool. The
// caller must have Closed (or abandoned) it first.
func PutGzipWriterSpeed(gz *gzip.Writer) {
	if gz != nil {
		gzWriterSpeed.Put(gz)
	}
}

// GzipWriter returns a pooled default-level gzip writer reset to w.
// Return it with PutGzipWriter after Close.
func GzipWriter(w io.Writer) *gzip.Writer {
	gz := gzWriterDefault.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// PutGzipWriter returns a default-level writer to the pool.
func PutGzipWriter(gz *gzip.Writer) {
	if gz != nil {
		gzWriterDefault.Put(gz)
	}
}

// GzipReader returns a pooled gzip reader reset onto r. The header is
// read immediately, so the error return mirrors gzip.NewReader. Return
// the reader with PutGzipReader; Close it first when the trailer
// checksum matters.
func GzipReader(r io.Reader) (*gzip.Reader, error) {
	if got := gzReaders.Get(); got != nil {
		gz := got.(*gzip.Reader)
		if err := gz.Reset(r); err != nil {
			gzReaders.Put(gz)
			return nil, err
		}
		return gz, nil
	}
	return gzip.NewReader(r)
}

// PutGzipReader returns a gzip reader to the pool.
func PutGzipReader(gz *gzip.Reader) {
	if gz != nil {
		gzReaders.Put(gz)
	}
}

// FlateWriter returns a pooled raw-deflate writer at BestSpeed, reset
// to w. Return it with PutFlateWriter after Close/Flush.
func FlateWriter(w io.Writer) *flate.Writer {
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(w)
	return fw
}

// PutFlateWriter returns a flate writer to the pool.
func PutFlateWriter(fw *flate.Writer) {
	if fw != nil {
		flateWriters.Put(fw)
	}
}

// bufPool recycles byte scratch buffers (block payloads, compressed
// column bodies). Buffers are pooled as *[]byte to avoid the
// interface-boxing allocation sync.Pool would otherwise charge per
// Put.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Buf returns a pooled byte slice with length n (contents undefined).
// Return it with PutBuf.
func Buf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// PutBuf returns a scratch buffer to the pool. Oversized buffers
// (>16 MiB) are dropped so one huge column cannot pin memory forever.
func PutBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > 16<<20 {
		return
	}
	bufPool.Put(bp)
}
