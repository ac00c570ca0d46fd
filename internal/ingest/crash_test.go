package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// The crash property: kill the daemon anywhere — between records,
// between checkpoints, during a faulted checkpoint, during a faulted
// seal — restart it over the same WAL tree, seek the stream to its
// resume cursor, and the finished lake must still be byte-identical
// to the batch build. No record lost, none double-counted, no
// leftover attempt state on disk — in the WAL tree or beside the
// checkpoint files.

// killPoints derives deterministic kill positions from a seed: the
// same storm replays identically run after run.
func killPoints(seed uint64, total, n int) []int {
	x := seed | 1
	pts := make(map[int]bool, n)
	for len(pts) < n {
		// xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := int(x % uint64(total))
		if p > 0 {
			pts[p] = true
		}
	}
	out := make([]int, 0, n)
	for p := range pts {
		out = append(out, p)
	}
	// Positions are consumed via "kill once past point"; order them.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// streamTotal counts a world's stream records over days.
func streamTotal(w *simnet.World, days []time.Time) int {
	src := w.Stream(days)
	var sr simnet.StreamRecord
	n := 0
	for src.Next(&sr) {
		n++
	}
	return n
}

// runUntil feeds the ingester from the stream until the stream is
// exhausted or the next record's Seq reaches stop. It never calls
// Close: the caller decides whether this incarnation dies gracefully
// or is abandoned mid-flight like a killed process (buffered WAL
// frames lost, cursor stale, file handles leaked to the OS).
func runUntil(t *testing.T, in *Ingester, w *simnet.World, days []time.Time, stop uint64) {
	t.Helper()
	ctx := context.Background()
	src := w.Stream(days)
	src.Seek(in.Resume())
	var sr simnet.StreamRecord
	for src.Pos() < stop && src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatalf("ingest at seq %d: %v", sr.Seq, err)
		}
	}
}

// killed is what a killStorage panics with.
type killed struct{}

// killStorage passes everything through and dies — panics, which
// runUntilKilled turns into an abandoned incarnation — right after its
// n-th delta append (appends) or base rewrite (rewrites) has landed:
// the process killed between that write and whatever the ingester
// would have done next, the cursor first of all.
type killStorage struct {
	Storage
	appends, rewrites int
	day               time.Time // the day whose write it died behind
}

func (k *killStorage) AppendPartial(day time.Time, p *analytics.Partial) error {
	err := k.Storage.AppendPartial(day, p)
	k.countdown(&k.appends, day, err)
	return err
}

func (k *killStorage) SavePartials(day time.Time, parts []*analytics.Partial) error {
	err := k.Storage.SavePartials(day, parts)
	k.countdown(&k.rewrites, day, err)
	return err
}

func (k *killStorage) countdown(n *int, day time.Time, err error) {
	if err != nil || *n == 0 {
		return
	}
	if *n--; *n == 0 {
		k.day = day
		panic(killed{})
	}
}

// runUntilKilled is runUntil for an incarnation whose storage may kill
// it; it reports whether it did.
func runUntilKilled(t *testing.T, in *Ingester, w *simnet.World, days []time.Time, stop uint64) (dead bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
			dead = true
		}
	}()
	runUntil(t, in, w, days, stop)
	return false
}

// aimedKills runs two incarnations over cfg that die at the two points
// a delta checkpoint adds to the crash surface: behind the second
// delta append, before the cursor that would have recorded it (the
// checkpoint file then covers more than the cursor claims), and behind
// a size-rule base rewrite's rename, before the next append (the file
// is one frame again, the deltas it replaced gone).
func aimedKills(t *testing.T, cfg Config, w *simnet.World, days []time.Time) {
	t.Helper()
	inner := cfg.Storage
	// The second rewrite: the first is the one recovery ends with.
	for _, ks := range []*killStorage{{appends: 2}, {rewrites: 2}} {
		behindAppend := ks.appends > 0
		ks.Storage = inner
		cfg.Storage = ks
		in, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !runUntilKilled(t, in, w, days, ^uint64(0)) {
			t.Fatalf("the stream ended before the aimed kill (%+v) fired", ks)
		}
		parts, err := inner.LoadPartials(ks.day)
		if err != nil {
			t.Fatal(err)
		}
		if behindAppend && len(parts) < 2 {
			t.Fatalf("killed behind a delta append, yet %s's checkpoint holds %d frames", ks.day.Format("2006-01-02"), len(parts))
		} else if !behindAppend && len(parts) != 1 {
			t.Fatalf("killed behind a base rewrite, yet %s's checkpoint holds %d frames", ks.day.Format("2006-01-02"), len(parts))
		}
	}
}

func TestCrashRecoveryStorm(t *testing.T) {
	days := ingestDays(7, 4)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	total := streamTotal(w, days)
	kills := killPoints(0xEDCE5, total, 6)
	lake := newTestLake(t)
	ctx := context.Background()

	dups0, recov0 := mDupsDropped.Load(), mRecoveries.Load()

	aimedKills(t, lake.config(), w, days)
	for _, k := range kills {
		in, err := Open(lake.config())
		if err != nil {
			t.Fatalf("reopen before kill point %d: %v", k, err)
		}
		if in.Resume() > uint64(k) {
			continue // an earlier incarnation already durably passed this point
		}
		runUntil(t, in, w, days, uint64(k))
		// Kill: no Close, no flush, no cursor write. Unflushed WAL
		// frames die with the incarnation; flushed ones survive.
	}

	// Plant a stale checkpoint temp beside an open day's checkpoint —
	// the debris of a base rewrite killed before its rename. Recovery
	// must not load it (only the exact final path is ever read) and must
	// not leave it: the day's one writer sweeps it as it reopens the day.
	open, _ := filepath.Glob(filepath.Join(lake.aggDir, "parts-*"))
	if len(open) == 0 {
		t.Fatal("no open day has a checkpoint file to plant debris beside")
	}
	stale := open[0] + ".tmp-666"
	if err := os.WriteFile(stale, []byte("torn checkpoint debris"), 0o644); err != nil {
		t.Fatal(err)
	}

	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("recovery left the stale checkpoint temp behind (stat: %v)", err)
	}
	runUntil(t, in, w, days, uint64(total)+1)
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if mRecoveries.Load() == recov0 {
		t.Error("no incarnation reported a recovery")
	}
	if mDupsDropped.Load() == dups0 {
		t.Error("no re-delivered records were deduplicated — the kills were vacuous")
	}

	for _, day := range days {
		if !bytes.Equal(lakeCanon(t, lake.storage, day), batchCanon(t, w, day)) {
			t.Errorf("day %s: lake after %d crashes diverges from batch fold",
				day.Format("2006-01-02"), len(kills))
		}
	}

	// Nothing leaked: the WAL tree holds no day dirs and no cursor
	// temps, and the agg dir holds no checkpoint of a sealed day and no
	// temp of anything.
	ents, err := os.ReadDir(lake.walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("leaked WAL day dir %s", e.Name())
		}
		if ok, _ := filepath.Match("cursor.tmp-*", e.Name()); ok {
			t.Errorf("leaked cursor temp %s", e.Name())
		}
	}
	assertNoCheckpointDebris(t, lake.aggDir)
}

// assertNoCheckpointDebris fails if the agg dir of a fully sealed lake
// still holds a checkpoint file or any save's temp sibling.
func assertNoCheckpointDebris(t *testing.T, aggDir string) {
	t.Helper()
	ents, err := os.ReadDir(aggDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "parts-") || strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leaked checkpoint state %s", e.Name())
		}
	}
}

// flakyCompactor fails its first CompactDay — the moral equivalent of
// a compaction killed mid-rewrite (CompactDay itself is atomic, so a
// real kill leaves the same observable state: a valid uncompacted
// day).
type flakyCompactor struct {
	inner  Compactor
	failed bool
}

func (f *flakyCompactor) CompactDay(day time.Time, format flowrec.Format) (uint64, error) {
	if !f.failed {
		f.failed = true
		return 0, os.ErrDeadlineExceeded
	}
	return f.inner.CompactDay(day, format)
}

// TestCrashDuringCheckpointSealAndCompaction drives the storm through
// injected checkpoint and seal faults (with kills landing while those
// fault windows are open) and a compactor that dies on its first day.
// Degradation, not data loss: every failure leaves the WAL
// authoritative and the finished lake byte-identical.
func TestCrashDuringCheckpointSealAndCompaction(t *testing.T) {
	days := ingestDays(7, 3)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	total := streamTotal(w, days)
	lake := newTestLake(t)
	ctx := context.Background()

	plan, err := faultinject.Parse("checkpoint:p=1,fails=3,transient,seed=11;seal:p=1,fails=2,transient,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	fc := &flakyCompactor{inner: lake.store}
	cfg := lake.config()
	cfg.Faults = plan
	cfg.Compactor = fc
	// One retry absorbs part of the fault budget; the rest surfaces as
	// degraded checkpoints/seals that later attempts clear.
	cfg.Retry = retry.Policy{Attempts: 2, Sleep: func(time.Duration) {}}

	ckf0, sf0, cpf0 := mCkptFailures.Load(), mSealFailures.Load(), mCompactErrors.Load()

	// Kill twice mid-stream — the first checkpoints of each
	// incarnation fall inside the fault window, so these kills land
	// after failed checkpoints: the crash-during-checkpoint case. The
	// two aimed kills go in between, through the same fault plan: a
	// failed append or rewrite there means the next one is a rewrite.
	for i, k := range []int{total / 3, 2 * total / 3} {
		in, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if in.Resume() <= uint64(k) {
			runUntil(t, in, w, days, uint64(k))
		}
		if i == 0 {
			aimedKills(t, cfg, w, days)
		}
	}

	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, in, w, days, uint64(total)+1)
	// Seals may fail while the fault budget lasts; SealAll again until
	// the lake is complete (bounded — the faults are fails=N).
	for i := 0; i < 5; i++ {
		if err := in.SealAll(ctx); err == nil {
			break
		}
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if mCkptFailures.Load() == ckf0 {
		t.Error("checkpoint faults never fired — the crash-during-checkpoint path was vacuous")
	}
	if mSealFailures.Load() == sf0 {
		t.Error("seal faults never fired — the crash-during-seal path was vacuous")
	}
	if mCompactErrors.Load() == cpf0 {
		t.Error("compactor fault never fired")
	}

	for _, day := range days {
		if !lake.storage.HasDay(day) {
			t.Fatalf("day %s never sealed through the fault storm", day.Format("2006-01-02"))
		}
		if !bytes.Equal(lakeCanon(t, lake.storage, day), batchCanon(t, w, day)) {
			t.Errorf("day %s: faulted lake diverges from batch fold", day.Format("2006-01-02"))
		}
	}

	assertNoCheckpointDebris(t, lake.aggDir)

	// The day whose compaction failed is still a valid v1 day — and a
	// later compaction pass fixes it up with no ingester involved.
	if _, err := lake.store.CompactDay(days[0], flowrec.FormatV3); err != nil {
		t.Fatalf("re-compacting the degraded day: %v", err)
	}
}

// TestDamagedCursorFallsBackToFullReplay: a corrupt resume cursor must
// read as "resume from the start", with recovery dedup absorbing the
// full re-delivery — slower, never wrong.
func TestDamagedCursorFallsBackToFullReplay(t *testing.T) {
	days := ingestDays(7, 2)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	total := streamTotal(w, days)
	lake := newTestLake(t)
	ctx := context.Background()

	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, in, w, days, uint64(total/2))
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(lake.walDir, "cursor"),
		[]byte("not a cursor"), 0o644); err != nil {
		t.Fatal(err)
	}

	in2, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	if in2.Resume() != 0 {
		t.Fatalf("damaged cursor resumed at %d, want 0", in2.Resume())
	}
	dups0 := mDupsDropped.Load()
	runUntil(t, in2, w, days, uint64(total)+1)
	if err := in2.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if mDupsDropped.Load() == dups0 {
		t.Error("full replay deduplicated nothing — the WAL recovery was vacuous")
	}
	for _, day := range days {
		if !bytes.Equal(lakeCanon(t, lake.storage, day), batchCanon(t, w, day)) {
			t.Errorf("day %s: lake after cursor damage diverges from batch fold", day.Format("2006-01-02"))
		}
	}
}

// TestRecoveryOverDamagedCheckpoint is the recovery half of the framed
// file's property (core's TestPartialFramesTornTailAndBitFlip holds the
// reader's half at every byte): whatever prefix of the checkpoint's
// frames survives — the last append torn anywhere, a bit flipped in a
// middle frame — LoadPartials returns exactly the whole frames before
// the damage, and recovery over them plus the WAL finishes a lake
// byte-identical to the batch build.
func TestRecoveryOverDamagedCheckpoint(t *testing.T) {
	days := ingestDays(7, 1)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	want := batchCanon(t, w, days[0])
	ctx := context.Background()

	// Feed until the open day's checkpoint holds a base and three
	// deltas, noting where each frame ends, then die.
	pristine := t.TempDir()
	lake := openTestLake(t, pristine)
	config := func(l *testLake) Config {
		cfg := l.config()
		cfg.CheckpointEvery = 64 // deltas small enough for three to fit behind a base
		return cfg
	}
	in, err := Open(config(lake))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	src := w.Stream(days)
	var sr simnet.StreamRecord
	for len(ends) < 4 && src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
		switch base, total := lake.storage.PartialsSize(days[0]); {
		case total == base && total > 0:
			ends = []int64{base} // a rewrite: one frame again
		case len(ends) > 0 && total > ends[len(ends)-1]:
			ends = append(ends, total)
		}
	}
	if len(ends) < 4 {
		t.Fatalf("the day ended with %d frames outstanding, the test needs 4", len(ends))
	}
	ckpt, _ := filepath.Glob(filepath.Join(lake.aggDir, "parts-*"))
	if len(ckpt) != 1 {
		t.Fatalf("expected one checkpoint file, found %v", ckpt)
	}
	name := filepath.Base(ckpt[0])

	type damage struct {
		what   string
		frames int // whole frames a reader must still see
		apply  func(b []byte) []byte
	}
	var cases []damage
	// Frame sizes are gzip(gob) lengths and differ from run to run, so
	// the subtests are named by where the damage sits, not by its byte
	// offset — a stable name is what lets a suite listing be compared
	// between runs. The offsets are logged.
	last := ends[3] - ends[2]
	t.Logf("frames end at %v; the last frame is %d bytes", ends, last)
	for _, c := range []struct {
		where string
		off   int64
	}{
		{"byte 0", 0}, {"byte 1", 1}, {"byte 4", 4}, {"byte 11", 11}, {"byte 12", 12},
		{"a third", last / 3}, {"half", last / 2}, {"its final byte", last - 1},
	} {
		cases = append(cases, damage{"last frame cut at " + c.where, 3,
			func(b []byte) []byte { return b[:ends[2]+c.off] }})
	}
	for _, c := range []struct {
		where string
		at    int64
	}{
		{"6 bytes into the second frame", ends[0] + 6}, {"in the middle of the second frame", (ends[0] + ends[1]) / 2},
	} {
		cases = append(cases, damage{"bit flipped " + c.where, 1,
			func(b []byte) []byte { b[c.at] ^= 0x04; return b }})
	}

	for _, c := range cases {
		t.Run(c.what, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, pristine, dir)
			lake := openTestLake(t, dir)
			path := filepath.Join(lake.aggDir, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.apply(b), 0o644); err != nil {
				t.Fatal(err)
			}
			parts, err := lake.storage.LoadPartials(days[0])
			if err != nil || len(parts) != c.frames {
				t.Fatalf("LoadPartials over the damaged file: %d frames (err %v), want %d", len(parts), err, c.frames)
			}

			in, err := Open(config(lake))
			if err != nil {
				t.Fatal(err)
			}
			// Recovery left one whole base behind: the damage is gone
			// before anything is appended after it.
			if base, total := lake.storage.PartialsSize(days[0]); base == 0 || base != total {
				t.Errorf("after recovery the checkpoint is %d bytes behind a %d-byte base frame, want the base alone", total-base, base)
			}
			runUntil(t, in, w, days, ^uint64(0))
			if err := in.SealAll(ctx); err != nil {
				t.Fatal(err)
			}
			if err := in.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lakeCanon(t, lake.storage, days[0]), want) {
				t.Error("lake recovered over the damaged checkpoint diverges from the batch fold")
			}
		})
	}
}

// copyTree copies the directory tree under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
