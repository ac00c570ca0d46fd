package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// walSeed writes a small valid segment through the WAL writer and
// returns its bytes and the records it holds, as replay yields them.
func walSeed(f *testing.F) ([]byte, []flowrec.Record) {
	day := ingestDays(7, 1)[0]
	dir := f.TempDir()
	w, err := openSegment(dir, day)
	if err != nil {
		f.Fatal(err)
	}
	var recs []flowrec.Record
	simnet.NewWorld(ingestSeed, simnet.Scale{ADSL: 2, FTTH: 1}).EmitDay(day, func(r *flowrec.Record) {
		if len(recs) == 16 {
			return
		}
		q := *r
		q.Quantize()
		if err := w.append(&q); err != nil {
			f.Fatal(err)
		}
		recs = append(recs, q)
	})
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(walDayDir(dir, day), "seg-000000.wal"))
	if err != nil {
		f.Fatal(err)
	}
	if len(recs) == 0 {
		f.Fatal("the seed day emitted no records")
	}
	return data, recs
}

// FuzzReplayWAL writes arbitrary bytes as a day's one WAL segment and
// replays it, as recovery and seal do. Nothing panics; the count
// replayDay returns is the number of records it handed to fn; and
// bytes that start with an undamaged segment replay that segment's
// records first, record for record — damage behind a frame never costs
// the frame.
func FuzzReplayWAL(f *testing.F) {
	seed, recs := walSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(append(bytes.Clone(seed), 0x05, 0xff, 0xff))
	f.Add([]byte("efl1"))
	f.Add([]byte{})
	day := ingestDays(7, 1)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segDir := walDayDir(dir, day)
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, "seg-000000.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []flowrec.Record
		n, err := replayDay(dir, day, func(r *flowrec.Record) error {
			got = append(got, *r)
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if n != uint64(len(got)) {
			t.Fatalf("replayDay returned %d, but handed fn %d records", n, len(got))
		}
		if !bytes.HasPrefix(data, seed) {
			return
		}
		if len(got) < len(recs) {
			t.Fatalf("the seed segment replays %d of its %d records", len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("record %d replays as %v, want %v", i, &got[i], &recs[i])
			}
		}
	})
}
