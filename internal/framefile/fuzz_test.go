package framefile_test

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/framefile"
	"repro/internal/ingest"
)

var fuzzDay = time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)

// frameHeaderLen is the framing in front of every payload: magic,
// length field, checksum.
const frameHeaderLen = 12

// rawFrame wraps payload in a well-formed frame header.
func rawFrame(payload string) []byte {
	h := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	copy(h, "epf1")
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[8:12], frameSum(h[4:8], []byte(payload)))
	return append(h, payload...)
}

// frameSum is the checksum a frame header carries, spelled out here so
// the fuzzer does not trust the code it checks.
func frameSum(lenField, payload []byte) uint32 {
	tab := crc32.MakeTable(crc32.Castagnoli)
	return crc32.Update(crc32.Checksum(lenField, tab), tab, payload)
}

// leadingFrame reports whether b starts with a frame that passes its
// checksum, and whether that frame is all of b.
func leadingFrame(b []byte) (ok, whole bool) {
	if len(b) < frameHeaderLen || string(b[:4]) != "epf1" {
		return false, false
	}
	size := int(binary.LittleEndian.Uint32(b[4:8]))
	if size > len(b)-frameHeaderLen ||
		frameSum(b[4:8], b[frameHeaderLen:frameHeaderLen+size]) != binary.LittleEndian.Uint32(b[8:12]) {
		return false, false
	}
	return true, frameHeaderLen+size == len(b)
}

// onlyFile returns the one file in dir.
func onlyFile(f *testing.F, dir string) string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	if len(ents) != 1 || ents[0].IsDir() {
		f.Fatalf("%s holds %v, want one file", dir, ents)
	}
	return filepath.Join(dir, ents[0].Name())
}

// derivedFiles writes one small file of every derived kind through its
// real writer, each alone in its own directory under dir, and returns
// each file's path and loader. A loader reports whether the file read
// as a value (false: a miss).
func derivedFiles(f *testing.F, dir string) (paths map[string]string, loaders map[string]func() (bool, error)) {
	week := analytics.WindowStart(analytics.GrainWeek, fuzzDay)
	aggs := core.NewDiskStorage(nil, filepath.Join(dir, "agg"))
	parts := core.NewDiskStorage(nil, filepath.Join(dir, "parts"))
	rollups := core.NewDiskStorage(nil, "").WithRollupDir(filepath.Join(dir, "rollup"))
	roll, err := analytics.BuildRollup(analytics.GrainWeek, week, []time.Time{fuzzDay}, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := aggs.SaveAgg(analytics.NewPartial(fuzzDay).Finish()); err != nil {
		f.Fatal(err)
	}
	if err := parts.SavePartials(fuzzDay, []*analytics.Partial{analytics.NewPartial(fuzzDay)}); err != nil {
		f.Fatal(err)
	}
	if err := rollups.SaveRollup(roll); err != nil {
		f.Fatal(err)
	}

	// The cursor: one record streamed, its day sealed, the ingester closed.
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		f.Fatal(err)
	}
	cfg := ingest.Config{Storage: core.NewDiskStorage(store, filepath.Join(dir, "live")), WALDir: filepath.Join(dir, "wal")}
	in, err := ingest.Open(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	rec := flowrec.Record{Start: fuzzDay.Add(time.Hour), Proto: flowrec.ProtoTCP, Tech: flowrec.TechADSL,
		SubID: 1, BytesDown: 1 << 20, BytesUp: 1 << 10, PktsUp: 1, PktsDown: 1}
	if err := in.Ingest(ctx, &rec, rec.Start); err != nil {
		f.Fatal(err)
	}
	if err := in.SealAll(ctx); err != nil {
		f.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		f.Fatal(err)
	}

	paths = map[string]string{"cursor": onlyFile(f, cfg.WALDir)}
	for _, kind := range []string{"agg", "parts", "rollup"} {
		paths[kind] = onlyFile(f, filepath.Join(dir, kind))
	}
	loaders = map[string]func() (bool, error){
		"agg": func() (bool, error) { a, err := aggs.LoadAgg(fuzzDay); return a != nil, err },
		"parts": func() (bool, error) {
			p, err := parts.LoadPartials(fuzzDay)
			return p != nil, err
		},
		"rollup": func() (bool, error) { r, err := rollups.LoadRollup(analytics.GrainWeek, week); return r != nil, err },
		"cursor": func() (bool, error) {
			in, err := ingest.Open(cfg)
			if err != nil {
				return false, err
			}
			return in.Resume() != 0, nil
		},
	}
	return paths, loaders
}

// FuzzLoadDerivedFiles sends arbitrary bytes through the frame reader
// and through the loader of every derived file kind — day aggregate,
// partials, rollup, ingest cursor. Nothing panics; every
// frame Scan yields lies whole inside the input and passes its
// checksum; and no loader reads a value unless the bytes hold a frame
// that passes its checksum: the whole file for the single-frame kinds,
// its leading frame for partials.
func FuzzLoadDerivedFiles(f *testing.F) {
	paths, loaders := derivedFiles(f, f.TempDir())
	// Most seeds carry a few bytes each: go's minimiser is quadratic in
	// the input's length.
	whole := append(append(rawFrame("base"), rawFrame("")...), rawFrame("delta")...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(whole[:frameHeaderLen+2])
	f.Add([]byte("epf1\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})
	for _, kind := range []string{"agg", "parts", "rollup", "cursor"} {
		b, err := os.ReadFile(paths[kind])
		if err != nil {
			f.Fatal(err)
		}
		if ok, err := loaders[kind](); !ok || err != nil {
			f.Fatalf("the %s file its writer left does not load (%v)", kind, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		next := 0
		framefile.Scan(b, func(off int, payload []byte) bool {
			if off != next || off+frameHeaderLen+len(payload) > len(b) {
				t.Fatalf("frame at %d (+%d) does not follow the one ending at %d in %d bytes", off, len(payload), next, len(b))
			}
			h := b[off : off+frameHeaderLen]
			if string(h[:4]) != "epf1" || int(binary.LittleEndian.Uint32(h[4:8])) != len(payload) ||
				frameSum(h[4:8], payload) != binary.LittleEndian.Uint32(h[8:12]) {
				t.Fatalf("frame at %d fails its own header", off)
			}
			next = off + frameHeaderLen + len(payload)
			return true
		})

		lead, whole := leadingFrame(b)
		for kind, load := range loaders {
			if err := os.WriteFile(paths[kind], b, 0o644); err != nil {
				t.Fatal(err)
			}
			ok, err := load()
			if err != nil {
				t.Fatal(err)
			}
			if ok && !(whole || kind == "parts" && lead) {
				t.Fatalf("the %s loader read a value from %d bytes that hold no frame passing its checksum", kind, len(b))
			}
		}
	})
}
