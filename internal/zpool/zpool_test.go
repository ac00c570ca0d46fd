package zpool

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"sync"
	"testing"
)

// Round-trip through every pooled codec, twice, so the second pass
// exercises the Reset path on a recycled coder.
func TestGzipPoolRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("five years at the edge "), 100)
	for pass := 0; pass < 2; pass++ {
		var buf bytes.Buffer
		gz := GzipWriterSpeed(&buf)
		if _, err := gz.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		PutGzipWriterSpeed(gz)

		gr, err := GzipReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(gr)
		if err != nil {
			t.Fatal(err)
		}
		if err := gr.Close(); err != nil {
			t.Fatal(err)
		}
		PutGzipReader(gr)
		if !bytes.Equal(got, payload) {
			t.Fatalf("pass %d: round-trip mismatch", pass)
		}
	}
}

// The flate writer pool has no reader twin (the v3 read path has its
// own decoder), so its output is checked with a plain flate reader.
func TestFlatePoolRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 250, 251}, 500)
	for pass := 0; pass < 2; pass++ {
		var buf bytes.Buffer
		fw := FlateWriter(&buf)
		if _, err := fw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		PutFlateWriter(fw)

		got, err := io.ReadAll(flate.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("pass %d: round-trip mismatch", pass)
		}
	}
}

// GzipReader on a non-gzip stream must fail cleanly and keep the
// pooled coder usable for the next caller.
func TestGzipReaderBadHeader(t *testing.T) {
	if _, err := GzipReader(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("expected a header error")
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("ok"))
	gz.Close()
	gr, err := GzipReader(&buf)
	if err != nil {
		t.Fatalf("pool poisoned by bad header: %v", err)
	}
	if got, _ := io.ReadAll(gr); string(got) != "ok" {
		t.Fatalf("read %q, want %q", got, "ok")
	}
	PutGzipReader(gr)
}

// Concurrent acquire/release under -race: the pools must never hand
// one coder to two goroutines.
func TestPoolsConcurrent(t *testing.T) {
	payload := bytes.Repeat([]byte("abc123"), 200)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				gz := GzipWriter(&buf)
				gz.Write(payload)
				gz.Close()
				PutGzipWriter(gz)
				gr, err := GzipReader(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(gr)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("concurrent round-trip mismatch: %v", err)
					return
				}
				PutGzipReader(gr)

				bp := Buf(len(payload))
				copy(*bp, payload)
				PutBuf(bp)
			}
		}()
	}
	wg.Wait()
}
