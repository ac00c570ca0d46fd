package flowrec_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// simRecords returns the first n records a small simulated world emits
// for day: realistic column payloads to seed the v3 fuzz targets with.
func simRecords(day time.Time, n int) []flowrec.Record {
	w := simnet.NewWorld(5, simnet.Scale{ADSL: 8, FTTH: 4})
	var recs []flowrec.Record
	w.EmitDay(day, func(r *flowrec.Record) {
		if len(recs) < n {
			recs = append(recs, *r)
		}
	})
	return recs
}

// deflate compresses raw at a compress/flate level.
func deflate(tb testing.TB, raw []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oracleInflate is compress/flate's verdict on src as a v3 column
// payload of n bytes: it must yield exactly n bytes and then io.EOF.
func oracleInflate(src []byte, n int) ([]byte, bool) {
	fr := flate.NewReader(bytes.NewReader(src))
	out := make([]byte, n)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, false
	}
	var one [1]byte
	if _, err := io.ReadFull(fr, one[:]); err != io.EOF {
		return nil, false
	}
	return out, true
}

// FuzzInflate holds the v3 column DEFLATE decoder to compress/flate:
// on any stream and any stated size the two must agree on acceptance,
// and on the bytes when they accept. The seeds are real column
// payloads at three compression levels (Huffman-only, BestSpeed — the
// writer's — and the default, which adds lazy matching and longer
// distances), a stored block, and the smallest valid stream.
func FuzzInflate(f *testing.F) {
	cols, err := flowrec.RawColumns(simRecords(time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC), 2000))
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range cols {
		if len(raw) == 0 || len(raw) > math.MaxUint16 {
			continue
		}
		for _, level := range []int{flate.HuffmanOnly, flate.BestSpeed, flate.DefaultCompression} {
			f.Add(deflate(f, raw, level), uint16(len(raw)))
		}
	}
	stored := cols[flowrec.ColSrvPort][:300]
	f.Add(deflate(f, stored, flate.NoCompression), uint16(len(stored)))
	f.Add([]byte{0x03, 0x00}, uint16(0)) // one empty final fixed block

	var inf flowrec.Inflater // reused, as a decode worker reuses its own
	f.Fuzz(func(t *testing.T, src []byte, n uint16) {
		want, ok := oracleInflate(src, int(n))
		got := make([]byte, n)
		err := inf.Inflate(got, src)
		if (err == nil) != ok {
			t.Fatalf("kernel error %v, compress/flate accepts: %v", err, ok)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatal("kernel and compress/flate inflate different bytes")
		}
	})
}

// BenchmarkInflateColumns times inflating every deflated payload of
// one simulated day, column by column, with the v3 kernel and with a
// reused compress/flate reader (the decoder it replaced), reporting
// ns per record of the day.
func BenchmarkInflateColumns(b *testing.B) {
	dir := b.TempDir()
	s, err := flowrec.OpenStoreFormat(dir, flowrec.FormatV3)
	if err != nil {
		b.Fatal(err)
	}
	day := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	w, err := s.CreateDay(day)
	if err != nil {
		b.Fatal(err)
	}
	var werr error
	simnet.NewWorld(1, simnet.Scale{ADSL: 1000, FTTH: 500}).EmitDay(day, func(r *flowrec.Record) {
		if werr == nil {
			werr = w.Write(r)
		}
	})
	if werr != nil {
		b.Fatal(werr)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*", "*"))
	if err != nil || len(paths) != 1 {
		b.Fatalf("day files %v (%v)", paths, err)
	}
	cols, rows, err := flowrec.DeflatedPayloads(paths[0])
	if err != nil {
		b.Fatal(err)
	}

	var inf flowrec.Inflater
	fr := flate.NewReader(nil)
	var br bytes.Reader
	impls := []struct {
		name string
		fn   func(dst, src []byte) error
	}{
		{"kernel", inf.Inflate},
		{"flate", func(dst, src []byte) error {
			br.Reset(src)
			fr.(flate.Resetter).Reset(&br, nil)
			_, err := io.ReadFull(fr, dst)
			return err
		}},
	}
	dst := make([]byte, 1<<20)
	for c, ps := range cols {
		if len(ps) == 0 {
			continue
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("col=%02d/%s", c, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range ps {
						if err := impl.fn(dst[:p.Raw], p.Comp); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/record")
			})
		}
	}
}
