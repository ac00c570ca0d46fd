package flowrec_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// FuzzDecodeRecord drives the binary codec with arbitrary byte streams.
// The decoder is the first thing that touches bytes off disk, after
// gzip — torn writes, bit flips and truncation all surface here — so it
// must reject damage with an error (ideally ErrCorrupt) and never
// panic, over-allocate, or loop.
func FuzzDecodeRecord(f *testing.F) {
	// Seed with a genuine day log: encode a slice of simulator output so
	// the fuzzer starts from structurally valid streams and mutates
	// inward from there.
	w := simnet.NewWorld(5, simnet.Scale{ADSL: 8, FTTH: 4})
	day := time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	enc, err := flowrec.NewEncoder(&buf)
	if err != nil {
		f.Fatal(err)
	}
	n := 0
	w.EmitDay(day, func(r *flowrec.Record) {
		if n < 64 {
			if err := enc.Encode(r); err != nil {
				f.Fatal(err)
			}
			n++
		}
	})
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	if n == 0 {
		f.Fatal("simulator emitted no records to seed from")
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add(valid[:4])            // header only
	f.Add([]byte{})
	f.Add([]byte("efl1"))
	f.Add([]byte("not a flow log"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := flowrec.NewDecoder(bytes.NewReader(data))
		if err != nil {
			return // bad magic / short header: rejection is correct
		}
		var rec flowrec.Record
		for {
			err := dec.Decode(&rec)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // any explicit decode error is acceptable
			}
		}
	})
}

// FuzzReadDayV3 drives the v3 framing — block headers, stats, column
// lengths, bodies, dictionaries, the terminator — with arbitrary bytes
// behind the "efl3" magic, serially and over two decode workers. A
// damaged day must fail with an error that says so (ErrCorrupt, or
// ErrBadMagic for a file that is not a day log at all), never panic,
// hang or read as clean with a different error class.
func FuzzReadDayV3(f *testing.F) {
	dir := f.TempDir()
	s, err := flowrec.OpenStoreFormat(dir, flowrec.FormatV3)
	if err != nil {
		f.Fatal(err)
	}
	day := time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)
	w, err := s.CreateDay(day)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range simRecords(day, 300) {
		if err := w.Write(&r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*", "*"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("day files %v (%v)", paths, err)
	}
	path := paths[0]
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := valid[4:] // the fuzzer mutates what follows the magic
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte{0, 0, 0}) // an empty day: terminator only
	// A block row count past 64 bits once read as an unclassified
	// error: damage that nothing quarantined.
	f.Add([]byte{0x85, 0xc4, 0x81, 0xb7, 0xf9, 0xf9, 0xf9, 0xf9, 0xe4, 0x30})

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, append([]byte("efl3"), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			err := s.ReadDayCols(day, flowrec.ColScan{Workers: workers}, func(*flowrec.Record) error { return nil })
			if err != nil && !errors.Is(err, flowrec.ErrCorrupt) && !errors.Is(err, flowrec.ErrBadMagic) {
				t.Fatalf("workers=%d: error %v wraps neither ErrCorrupt nor ErrBadMagic", workers, err)
			}
		}
	})
}
