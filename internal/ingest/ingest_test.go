package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// The streamed≡batch obligation at the package level: a world's days
// pushed record by record through the live loop — WAL, incremental
// checkpoints, rollover seals, compaction — must leave a lake whose
// per-day canonical aggregates are byte-identical to folding the same
// world's EmitDay output directly. The merge monoid promises it; the
// tests here hold the daemon to it, including across graceful
// restarts. (crash_test.go holds it across ungraceful ones.)

// ingestSeed 7 at these span offsets provably contains flows that end
// past midnight (days 8 and 10 each have one), so the cross-day paths
// are exercised, not vacuous.
const ingestSeed = 7

var ingestScale = simnet.Scale{ADSL: 8, FTTH: 4}

func ingestDays(off, n int) []time.Time {
	days := make([]time.Time, n)
	for i := range days {
		days[i] = simnet.SpanStart.AddDate(0, 0, off+i)
	}
	return days
}

// batchCanon folds one day of the world as the batch pipeline would —
// through a materialised day file, whose codec quantizes times — and
// returns its canonical bytes. Built lazily once per test.
func batchCanon(t *testing.T, w *simnet.World, day time.Time) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "batch")
	store, err := flowrec.OpenStoreFormat(dir, flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	storage := core.NewDiskStorage(store, "")
	if _, err := storage.WriteDay(day, func(write func(*flowrec.Record) error) error {
		var werr error
		w.EmitDay(day, func(r *flowrec.Record) {
			if werr == nil {
				werr = write(r)
			}
		})
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	return lakeCanon(t, storage, day)
}

// lakeCanon reads one sealed day back out of the lake, folds it, and
// returns its canonical bytes.
func lakeCanon(t *testing.T, storage *core.DiskStorage, day time.Time) []byte {
	t.Helper()
	agg := analytics.NewAggregator(day, classify.Default())
	if err := storage.ReadDayCols(day, flowrec.ColScan{}, func(r *flowrec.Record) error {
		agg.Add(r)
		return nil
	}); err != nil {
		t.Fatalf("reading sealed day %s: %v", day.Format("2006-01-02"), err)
	}
	b, err := analytics.CanonicalBytes(agg.Result())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testLake is one ingest target: a v1 store with aggregate cache and
// WAL dir in a temp tree.
type testLake struct {
	store   *flowrec.Store
	storage *core.DiskStorage
	aggDir  string
	walDir  string
}

func newTestLake(t *testing.T) *testLake {
	t.Helper()
	return openTestLake(t, t.TempDir())
}

// openTestLake opens (or creates) the lake tree under dir.
func openTestLake(t *testing.T, dir string) *testLake {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	return &testLake{
		store:   store,
		storage: core.NewDiskStorage(store, filepath.Join(dir, "agg")),
		aggDir:  filepath.Join(dir, "agg"),
		walDir:  filepath.Join(dir, "lake", flowrec.WALDirName),
	}
}

func (l *testLake) config() Config {
	return Config{
		Storage:         l.storage,
		WALDir:          l.walDir,
		CheckpointEvery: 256, // small: many checkpoints per day at test scale
		Grace:           8 * time.Hour,
		Compactor:       l.store,
		CompactFormat:   flowrec.FormatV3,
		CompactSync:     true,
	}
}

func TestStreamedEqualsBatch(t *testing.T) {
	days := ingestDays(7, 4)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	lake := newTestLake(t)
	ctx := context.Background()

	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	ckBefore, sealsBefore := mCheckpoints.Load(), mSeals.Load()
	rwBefore, bytesBefore := mBaseRewrites.Load(), mCkptBytes.Load()

	src := w.Stream(days)
	var sr simnet.StreamRecord
	n := 0
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if got := mSeals.Load() - sealsBefore; got != uint64(len(days)) {
		t.Fatalf("sealed %d days, want %d", got, len(days))
	}
	cks, rws := mCheckpoints.Load()-ckBefore, mBaseRewrites.Load()-rwBefore
	if cks == 0 {
		t.Fatal("no incremental checkpoints happened at CheckpointEvery=256")
	}
	// Most checkpoints append a delta; the size rule folds them back
	// often enough that a day never reads as a pile of them.
	if rws < uint64(len(days)) || rws >= cks {
		t.Errorf("%d of %d checkpoints rewrote the base; want at least one a day and deltas in between", rws, cks)
	}
	if mCkptBytes.Load() == bytesBefore {
		t.Error("ingest.checkpoint_bytes did not move")
	}
	if n := mCkptFrames.Load(); n != 0 {
		t.Errorf("ingest.checkpoint_frames reads %d with every day sealed", n)
	}

	for _, day := range days {
		if !lake.storage.HasDay(day) {
			t.Fatalf("day %s not sealed", day.Format("2006-01-02"))
		}
		if !bytes.Equal(lakeCanon(t, lake.storage, day), batchCanon(t, w, day)) {
			t.Errorf("day %s: streamed lake diverges from batch fold", day.Format("2006-01-02"))
		}
	}

	// Compaction ran synchronously at seal: the day files must carry
	// the columnar magic, not the row format they were sealed as.
	stored, err := lake.store.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(days) {
		t.Fatalf("lake lists %d days, want %d", len(stored), len(days))
	}

	// The WAL tree is fully drained: no day dirs, no cursor temps.
	ents, err := os.ReadDir(lake.walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("sealed WAL tree still holds day dir %s", e.Name())
		}
		if ok, _ := filepath.Match("cursor.tmp-*", e.Name()); ok {
			t.Errorf("leaked cursor temp %s", e.Name())
		}
	}
	if n == 0 {
		t.Fatal("stream delivered zero records")
	}
}

// TestGracefulRestartResumes closes the ingester mid-stream, reopens
// over the same WAL tree, seeks the stream to Resume(), and finishes:
// the lake must come out byte-identical, with the resumed stream's
// re-delivered prefix dropped as duplicates, not double-counted.
func TestGracefulRestartResumes(t *testing.T) {
	days := ingestDays(7, 3)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	lake := newTestLake(t)
	ctx := context.Background()

	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	src := w.Stream(days)
	var sr simnet.StreamRecord
	var total int
	for src.Next(&sr) {
		total++
	}
	stop := total / 2

	src = w.Stream(days)
	for i := 0; i < stop && src.Next(&sr); i++ {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	in2, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	if in2.Resume() == 0 {
		t.Fatal("restart lost the cursor: Resume()==0 after a graceful close mid-stream")
	}
	dupsBefore := mDupsDropped.Load()
	src2 := w.Stream(days)
	src2.Seek(in2.Resume())
	for src2.Next(&sr) {
		if err := in2.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	if err := in2.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Close checkpoints before writing the cursor, so the graceful
	// cursor sits exactly at the stop point: Seek re-delivers nothing
	// and the dup counter stays put. (Crash recovery is where dup
	// dropping earns its keep — crash_test.go watches it move.)
	if d := mDupsDropped.Load() - dupsBefore; d != 0 {
		t.Errorf("graceful resume dropped %d records as duplicates; cursor should have been exact", d)
	}

	for _, day := range days {
		if !bytes.Equal(lakeCanon(t, lake.storage, day), batchCanon(t, w, day)) {
			t.Errorf("day %s: restarted lake diverges from batch fold", day.Format("2006-01-02"))
		}
	}
}

// TestHotPartialsServeOpenDay: before any seal, the checkpoint
// snapshots must already answer for the open day through the ordinary
// partials path — and after CheckpointAll they must equal the batch
// fold exactly, because every absorbed record is covered.
func TestHotPartialsServeOpenDay(t *testing.T) {
	days := ingestDays(7, 1)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	lake := newTestLake(t)
	ctx := context.Background()

	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	src := w.Stream(days)
	var sr simnet.StreamRecord
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	in.CheckpointAll(ctx)

	if lake.storage.HasDay(days[0]) {
		t.Fatal("day sealed prematurely")
	}
	parts, err := lake.storage.LoadPartials(days[0])
	if err != nil || len(parts) == 0 {
		t.Fatalf("no hot partials for the open day: %v", err)
	}
	hot, err := analytics.MergePartials(days[0], parts)
	if err != nil {
		t.Fatal(err)
	}
	hotBytes, err := analytics.CanonicalBytes(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hotBytes, batchCanon(t, w, days[0])) {
		t.Error("hot partials diverge from the batch fold of the same records")
	}

	// Sealing afterwards must not change the answer.
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lakeCanon(t, lake.storage, days[0]), hotBytes) {
		t.Error("sealed day diverges from its own hot-partial answer")
	}
}
