package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/framefile"
	"repro/internal/simnet"
)

// The framed partial file's contract: whatever happens to its tail —
// an append killed at any byte, a flipped bit anywhere — a reader gets
// the frames before the damage and nothing else, which is a snapshot
// the writer really took. (internal/ingest's crash suite holds the
// other half: recovery over such a prefix loses and repeats nothing.)

var framesDay = time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)

// frameHeaderLen is the framing in front of every payload: magic,
// length field, checksum.
const frameHeaderLen = 12

// chunkPartials folds a small day in n consecutive chunks, one partial
// each — the shape of a base and the deltas behind it.
func chunkPartials(t testing.TB, n int) []*analytics.Partial {
	t.Helper()
	var recs []flowrec.Record
	simnet.NewWorld(5, simnet.Scale{ADSL: 2, FTTH: 1}).EmitDay(framesDay, func(r *flowrec.Record) {
		recs = append(recs, *r)
	})
	if len(recs) < n {
		t.Fatalf("the day has %d records, need %d", len(recs), n)
	}
	parts := make([]*analytics.Partial, n)
	for i := range parts {
		agg := analytics.NewAggregator(framesDay, nil)
		for j := i * len(recs) / n; j < (i+1)*len(recs)/n; j++ {
			agg.Add(&recs[j])
		}
		parts[i] = agg.Partial()
	}
	return parts
}

// framedFile writes parts as [base][delta]… through the storage and
// returns the file's bytes and each frame's end offset.
func framedFile(t testing.TB, stor *DiskStorage, parts []*analytics.Partial) ([]byte, []int) {
	t.Helper()
	if err := stor.SavePartials(framesDay, parts[:1]); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if err := stor.AppendPartial(framesDay, p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(partialCachePath(stor.aggDir, framesDay))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	framefile.Scan(data, func(off int, payload []byte) bool {
		ends = append(ends, off+frameHeaderLen+len(payload))
		return true
	})
	if len(ends) != len(parts) || ends[len(ends)-1] != len(data) {
		t.Fatalf("wrote %d frames over %d bytes, the reader sees frame ends %v", len(parts), len(data), ends)
	}
	return data, ends
}

// rawFrame wraps payload in a well-formed frame header, spelled out
// here so the test pins the on-disk layout.
func rawFrame(payload string) []byte {
	h := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	copy(h, "epf1")
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(payload)))
	crc := crc32.Checksum(append(bytes.Clone(h[4:8]), payload...), crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(h[8:12], crc)
	return append(h, payload...)
}

// canonOf merges parts and returns the day's canonical bytes.
func canonOf(t testing.TB, parts []*analytics.Partial) []byte {
	t.Helper()
	agg, err := analytics.MergePartials(framesDay, parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analytics.CanonicalBytes(agg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPartialFramesTornTailAndBitFlip(t *testing.T) {
	stor := NewDiskStorage(nil, t.TempDir())
	parts := chunkPartials(t, 4)
	data, ends := framedFile(t, stor, parts)
	path := partialCachePath(stor.aggDir, framesDay)

	load := func(b []byte) []*analytics.Partial {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := stor.LoadPartials(framesDay)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := load(data); !bytes.Equal(canonOf(t, got), canonOf(t, parts)) {
		t.Fatal("the whole file does not read back as the partials written")
	}
	if base, total := stor.PartialsSize(framesDay); base != int64(ends[0]) || total != int64(len(data)) {
		t.Fatalf("PartialsSize = (%d, %d), want (%d, %d)", base, total, ends[0], len(data))
	}

	// An append killed at any byte of the last frame: the frames before
	// it, exactly.
	prefix := canonOf(t, parts[:3])
	for cut := ends[2]; cut < len(data); cut++ {
		got := load(data[:cut])
		if len(got) != 3 || !bytes.Equal(canonOf(t, got), prefix) {
			t.Fatalf("file cut at byte %d of %d: read %d partials, want the 3 whole frames", cut, len(data), len(got))
		}
	}

	// A flipped bit in a middle frame — header or payload — ends the
	// list there, healthy frames behind it or not.
	first := canonOf(t, parts[:1])
	for _, at := range []int{ends[0], ends[0] + 5, ends[0] + 9, ends[0] + frameHeaderLen, (ends[0] + ends[1]) / 2, ends[1] - 1} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x10
		got := load(bad)
		if len(got) != 1 || !bytes.Equal(canonOf(t, got), first) {
			t.Fatalf("bit flipped at byte %d (frame 2 spans %d..%d): read %d partials, want the base alone", at, ends[0], ends[1], len(got))
		}
	}

	// A frame that sums right but does not decode — another version's,
	// another day's, not a gzip at all — ends the list the same way.
	spliced := append(append(bytes.Clone(data[:ends[1]]), rawFrame("not a gzip")...), data[ends[1]:]...)
	wellFormed := 0
	framefile.Scan(spliced, func(int, []byte) bool { wellFormed++; return true })
	if wellFormed != len(parts)+1 {
		t.Fatalf("the spliced file holds %d well-formed frames, want %d", wellFormed, len(parts)+1)
	}
	if got := load(spliced); len(got) != 2 || !bytes.Equal(canonOf(t, got), canonOf(t, parts[:2])) {
		t.Fatalf("undecodable third frame: read %d partials, want the 2 before it", len(got))
	}

	// Damage in the base reads as a miss, and nothing can be appended
	// to a day that has no file.
	bad := bytes.Clone(data)
	bad[ends[0]/2] ^= 0x10
	if got := load(bad); got != nil {
		t.Fatalf("damaged base still read %d partials", len(got))
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := stor.AppendPartial(framesDay, parts[1]); err == nil {
		t.Fatal("AppendPartial created a file with no base frame")
	}
}

// TestOrphanTempsAreSwept: a save killed between CreateTemp and Rename
// leaves a temp sibling no later save reuses. The day's writer removes
// them — WriteDay with the rest of the day's derived state, the live
// ingester through SweepTemps as it reopens a day — and nobody else's.
func TestOrphanTempsAreSwept(t *testing.T) {
	aggDir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(t.TempDir(), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	stor := NewDiskStorage(store, aggDir)
	other := framesDay.AddDate(0, 0, 1)
	var temps []string
	for _, day := range []time.Time{framesDay, other} {
		for _, path := range []string{aggCachePath(aggDir, day), partialCachePath(aggDir, day)} {
			temps = append(temps, path+".tmp-123456")
		}
	}
	for _, tmp := range temps {
		if err := os.WriteFile(tmp, []byte("half a save"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }

	if _, err := stor.WriteDay(framesDay, func(func(*flowrec.Record) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if exists(temps[0]) || exists(temps[1]) {
		t.Error("WriteDay left the day's orphan temps behind")
	}
	if !exists(temps[2]) || !exists(temps[3]) {
		t.Fatal("WriteDay swept another day's temps")
	}
	if err := stor.SweepTemps(other); err != nil {
		t.Fatal(err)
	}
	if exists(temps[2]) || exists(temps[3]) {
		t.Error("SweepTemps left the day's orphan temps behind")
	}
	if err := NewDiskStorage(nil, filepath.Join(aggDir, "absent")).SweepTemps(other); err != nil {
		t.Errorf("SweepTemps over a cache dir not yet created: %v", err)
	}
}

// gzipLevelByte returns the XFL byte of a frame payload's gzip header:
// compress/gzip writes 4 at BestSpeed and 0 at the default level.
func gzipLevelByte(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var xfl []byte
	framefile.Scan(data, func(_ int, payload []byte) bool {
		if len(payload) < 10 || payload[0] != 0x1f || payload[1] != 0x8b {
			t.Fatalf("%s: a frame payload is not a gzip stream", path)
		}
		xfl = append(xfl, payload[8])
		return true
	})
	return xfl
}

// TestCheckpointFramesAreFast: a checkpoint's base and deltas are
// written at BestSpeed — their bytes die at the next rewrite or the
// seal — while the files written once and read many times (day
// aggregates, rollups) keep the default level.
func TestCheckpointFramesAreFast(t *testing.T) {
	const bestSpeed, defaultLevel = 4, 0
	stor := NewDiskStorage(nil, t.TempDir()).WithRollupDir(t.TempDir())
	framedFile(t, stor, chunkPartials(t, 3))
	if got := gzipLevelByte(t, partialCachePath(stor.aggDir, framesDay)); !bytes.Equal(got, []byte{bestSpeed, bestSpeed, bestSpeed}) {
		t.Errorf("checkpoint frames carry gzip XFL %v, want BestSpeed (%d) for the base and each delta", got, bestSpeed)
	}

	if err := stor.SaveAgg(analytics.NewPartial(framesDay).Finish()); err != nil {
		t.Fatal(err)
	}
	week := analytics.WindowStart(analytics.GrainWeek, framesDay)
	roll, err := analytics.BuildRollup(analytics.GrainWeek, week, []time.Time{framesDay}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := stor.SaveRollup(roll); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{aggCachePath(stor.aggDir, framesDay), rollupCachePath(stor.rollupDir, analytics.GrainWeek, week)} {
		if got := gzipLevelByte(t, path); !bytes.Equal(got, []byte{defaultLevel}) {
			t.Errorf("%s carries gzip XFL %v, want one frame at the default level", filepath.Base(path), got)
		}
	}
}

// BenchmarkCheckpointRewrite prices one live-ingest checkpoint rewrite
// on a late-day base: SavePartials of the base folded from a whole day
// of the live stream at 2,500 ADSL + 1,250 FTTH lines, then
// AppendPartial of one 4,096-record delta behind it. bytes/op is the
// file it leaves. Building the base takes a few seconds before the
// timer starts.
//
//	go test -run '^$' -bench '^BenchmarkCheckpointRewrite$' -benchtime 20x ./internal/core
func BenchmarkCheckpointRewrite(b *testing.B) {
	const deltaRecords = 4096
	day := time.Date(2016, 4, 29, 0, 0, 0, 0, time.UTC)
	src := simnet.NewWorld(1, simnet.Scale{ADSL: 2500, FTTH: 1250}).Stream([]time.Time{day})
	baseAgg := analytics.NewAggregator(day, nil)
	deltaAgg := analytics.NewAggregator(day, nil)
	var sr simnet.StreamRecord
	var n int
	for src.Next(&sr) {
		if !sr.Rec.Day().Equal(day) {
			continue
		}
		sr.Rec.Quantize()
		if n++; n <= deltaRecords {
			deltaAgg.Add(&sr.Rec)
		} else {
			baseAgg.Add(&sr.Rec)
		}
	}
	if n < 500_000 {
		b.Fatalf("the live day holds %d records, want a late-day base of at least 500k", n)
	}
	base, delta := baseAgg.Partial(), deltaAgg.Partial()
	stor := NewDiskStorage(nil, b.TempDir())
	var total int64
	for b.Loop() {
		if err := stor.SavePartials(day, []*analytics.Partial{base}); err != nil {
			b.Fatal(err)
		}
		if err := stor.AppendPartial(day, delta); err != nil {
			b.Fatal(err)
		}
		_, total = stor.PartialsSize(day)
	}
	b.ReportMetric(float64(total), "bytes/op")
}
