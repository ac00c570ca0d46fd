package core

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// Streamed≡batch at the experiment tier: a lake built by the live
// ingest loop — record stream, WAL, incremental checkpoints, rollover
// seals, background compaction to v3 — must be indistinguishable from
// a batch-generated lake to every experiment, at decode widths 1 and 3
// (mostly single-block days at colsEqScale; shard_test.go runs multi-block ones),
// byte for byte in canonical aggregates. The streamed build here runs
// the full gauntlet on the way: a chaos schedule faulting checkpoint,
// seal and storage writes (absorbed by retries or degraded and
// re-attempted), plus two process kills mid-stream with recovery and
// resume — one of which lands between checkpoints, the
// crash-between-checkpoints case the WAL exists for.

// buildStreamedStore pushes every chaos day of the colsEq world
// through an Ingester into a fresh lake, with the given fault plans
// and seeded kills, and returns the sealed, compacted store.
func buildStreamedStore(t *testing.T, days []time.Time, planSpec, storageSpec string, kills []uint64) *flowrec.Store {
	t.Helper()
	dir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	disk := NewDiskStorage(store, filepath.Join(dir, "agg"))

	var storage ingest.Storage = disk
	if storageSpec != "" {
		plan, err := faultinject.Parse(storageSpec)
		if err != nil {
			t.Fatal(err)
		}
		storage = faultinject.Wrap(disk, plan)
	}
	cfg := ingest.Config{
		Storage:         storage,
		WALDir:          filepath.Join(dir, "lake", flowrec.WALDirName),
		CheckpointEvery: 512,
		Compactor:       store,
		CompactFormat:   flowrec.FormatV3,
		CompactSync:     true,
		Retry:           retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}},
	}
	if planSpec != "" {
		if cfg.Faults, err = faultinject.Parse(planSpec); err != nil {
			t.Fatal(err)
		}
	}

	w := simnet.NewWorld(colsEqSeed, colsEqScale)
	ctx := context.Background()
	run := func(stop uint64) {
		in, err := ingest.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := w.Stream(days)
		src.Seek(in.Resume())
		var sr simnet.StreamRecord
		for src.Pos() < stop && src.Next(&sr) {
			if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
				t.Fatalf("ingest at seq %d: %v", sr.Seq, err)
			}
		}
		if stop != ^uint64(0) {
			return // kill: abandon without Close, like a dead process
		}
		// End of stream: seal everything, retrying days whose seal
		// faults have not yet burned out.
		for i := 0; i < 6; i++ {
			if err := in.SealAll(ctx); err == nil {
				break
			}
		}
		if err := in.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	for _, k := range kills {
		run(k)
	}
	run(^uint64(0))
	return store
}

func TestStreamedEqualsBatchExperiments(t *testing.T) {
	days := chaosDays(colsEqStride)
	batch := buildStoreFormat(t, t.TempDir(), flowrec.FormatV1, days)

	// Size the kill points off the real stream length so both land
	// strictly inside it (the second between checkpoints of a late
	// day).
	w := simnet.NewWorld(colsEqSeed, colsEqScale)
	src := w.Stream(days)
	var sr simnet.StreamRecord
	var total uint64
	for src.Next(&sr) {
		total++
	}
	streamed := buildStreamedStore(t, days,
		"checkpoint:p=0.4,transient,seed=5;seal:p=0.6,fails=1,transient,seed=5",
		"saveagg:p=0.3,transient,seed=6;writeday:p=0.4,fails=1,transient,seed=6",
		[]uint64{total * 2 / 5, total * 7 / 10})

	sdays, err := streamed.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(sdays) != len(days) {
		t.Fatalf("streamed lake holds %d days, batch day set has %d", len(sdays), len(days))
	}

	ctx := context.Background()
	for _, width := range []int{1, 3} {
		pb := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
			Workers: 4, ShardsPerDay: width, Store: batch})
		ps := New(Config{Seed: colsEqSeed, Scale: colsEqScale, Stride: colsEqStride,
			Workers: 4, ShardsPerDay: width, Store: streamed})
		for _, e := range AllExperiments() {
			edays := e.Days(colsEqStride)
			if len(edays) == 0 {
				continue
			}
			ab, err := pb.Aggregate(ctx, edays)
			if err != nil {
				t.Fatalf("%s width=%d: batch aggregate: %v", e.ID, width, err)
			}
			as, err := ps.Aggregate(ctx, edays)
			if err != nil {
				t.Fatalf("%s width=%d: streamed aggregate: %v", e.ID, width, err)
			}
			if len(as) != len(ab) {
				t.Fatalf("%s width=%d: batch has %d days, streamed %d", e.ID, width, len(ab), len(as))
			}
			for i := range ab {
				wb, err := analytics.CanonicalBytes(ab[i])
				if err != nil {
					t.Fatal(err)
				}
				ws, err := analytics.CanonicalBytes(as[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wb, ws) {
					t.Errorf("%s width=%d: day %s streamed lake diverges from batch",
						e.ID, width, ab[i].Day.Format("2006-01-02"))
					break
				}
			}
		}
	}
}

// TestHotDayServesFromCheckpoints: a span whose last day is still
// live must answer — the live day served from the ingest daemon's
// checkpoint file, a base frame and whatever deltas are outstanding
// behind it — and the answer must be byte-identical to a fold of the
// records absorbed so far, with three or more deltas outstanding and
// again right after a rewrite folded them, and to the same query after
// the day seals.
func TestHotDayServesFromCheckpoints(t *testing.T) {
	days := []time.Time{
		simnet.SpanStart.AddDate(0, 0, 7),
		simnet.SpanStart.AddDate(0, 0, 8),
		simnet.SpanStart.AddDate(0, 0, 9),
	}
	last := days[len(days)-1]
	dir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	aggDir := filepath.Join(dir, "agg")
	disk := NewDiskStorage(store, aggDir)
	const every = 64 // deltas small enough for several to fit behind a base
	in, err := ingest.Open(ingest.Config{
		Storage:         disk,
		WALDir:          filepath.Join(dir, "lake", flowrec.WALDirName),
		CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := Config{Seed: 7, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 4,
		Store: store, AggCacheDir: aggDir}
	ctx := context.Background()

	// hotLast answers the span from a fresh pipeline and returns the
	// live day's canonical bytes.
	hotLast := func() []byte {
		t.Helper()
		aggs, err := New(pcfg).Aggregate(ctx, []time.Time{last})
		if err != nil || len(aggs) != 1 {
			t.Fatalf("hot-day aggregate: %d days, err %v", len(aggs), err)
		}
		b, err := analytics.CanonicalBytes(aggs[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Stream the span, keeping the live day's records on the side. Each
	// time a checkpoint of the live day has just covered everything
	// absorbed, look at its file: the first time three deltas stand
	// behind the base, and the first time a rewrite has just folded
	// deltas away, the hot answer must equal a fold of the side copy.
	var absorbed []flowrec.Record
	var frames int
	var sawDeltas, sawRewrite bool
	w := simnet.NewWorld(7, simnet.Scale{ADSL: 8, FTTH: 4})
	src := w.Stream(days)
	var sr simnet.StreamRecord
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
		if !sr.Rec.Day().Equal(last) {
			continue
		}
		q := sr.Rec
		q.Quantize()
		if absorbed = append(absorbed, q); len(absorbed)%every != 0 {
			continue
		}
		parts, err := disk.LoadPartials(last)
		if err != nil {
			t.Fatal(err)
		}
		was := frames
		frames = len(parts)
		deltas, rewritten := frames >= 4 && !sawDeltas, frames == 1 && was > 1 && !sawRewrite
		if !deltas && !rewritten {
			continue
		}
		sawDeltas, sawRewrite = sawDeltas || deltas, sawRewrite || rewritten
		ref := analytics.NewAggregator(last, New(pcfg).Cls)
		for i := range absorbed {
			ref.Add(&absorbed[i])
		}
		want, err := analytics.CanonicalBytes(ref.Result())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hotLast(), want) {
			t.Errorf("hot answer over %d frame(s) after %d records differs from a fold of those records", frames, len(absorbed))
		}
	}
	if !sawDeltas || !sawRewrite {
		t.Fatalf("the live day never showed three outstanding deltas (%v) and a rewrite behind them (%v)", sawDeltas, sawRewrite)
	}
	in.CheckpointAll(ctx) // cover every absorbed record of the live day

	if disk.HasDay(last) {
		t.Fatal("the last day sealed prematurely; the test needs it live")
	}

	hot0 := mHotDayServes.Load()
	aggs, err := New(pcfg).Aggregate(ctx, days)
	if err != nil {
		t.Fatalf("aggregate over live span: %v", err)
	}
	if len(aggs) != len(days) {
		t.Fatalf("got %d day aggregates, want %d", len(aggs), len(days))
	}
	if mHotDayServes.Load() == hot0 {
		t.Error("pipeline.hot_day_serves did not move: the live day was not served from partials")
	}
	hotBytes := make([][]byte, len(aggs))
	for i := range aggs {
		if hotBytes[i], err = analytics.CanonicalBytes(aggs[i]); err != nil {
			t.Fatal(err)
		}
	}

	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !disk.HasDay(last) {
		t.Fatal("last day did not seal")
	}

	// Fresh pipeline: no memory cache, and sealing invalidated the
	// partials — the answer now comes from the sealed day file.
	aggs2, err := New(pcfg).Aggregate(ctx, days)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aggs2 {
		b, err := analytics.CanonicalBytes(aggs2[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, hotBytes[i]) {
			t.Errorf("day %s: hot answer differs from post-seal answer",
				aggs2[i].Day.Format("2006-01-02"))
		}
	}
}

// TestHotDayConcurrentReadsDuringIngest runs pipeline queries against
// the live day while the ingester is still absorbing records and
// checkpointing — the -race half of the hot-day contract. Answers
// mid-flight are valid prefixes; what must hold is that no query
// errors and nothing races.
func TestHotDayConcurrentReadsDuringIngest(t *testing.T) {
	day := simnet.SpanStart.AddDate(0, 0, 7)
	dir := t.TempDir()
	store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake"), flowrec.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	aggDir := filepath.Join(dir, "agg")
	disk := NewDiskStorage(store, aggDir)
	in, err := ingest.Open(ingest.Config{
		Storage:         disk,
		WALDir:          filepath.Join(dir, "lake", flowrec.WALDirName),
		CheckpointEvery: 128, // checkpoint often: readers race real snapshot swaps
	})
	if err != nil {
		t.Fatal(err)
	}
	w := simnet.NewWorld(7, simnet.Scale{ADSL: 8, FTTH: 4})
	src := w.Stream([]time.Time{day})
	ctx := context.Background()

	// Absorb a first batch so the readers always find a checkpoint.
	var sr simnet.StreamRecord
	for i := 0; i < 256 && src.Next(&sr); i++ {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	in.CheckpointAll(ctx)

	pcfg := Config{Seed: 7, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 2,
		Store: store, AggCacheDir: aggDir}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// A fresh pipeline per query: the memory cache must not
				// hide the moving checkpoint state.
				aggs, err := New(pcfg).Aggregate(ctx, []time.Time{day})
				if err != nil {
					t.Errorf("hot-day query during ingest: %v", err)
					return
				}
				if len(aggs) != 1 || aggs[0].Flows == 0 {
					t.Error("hot-day query returned an empty aggregate despite checkpoints")
					return
				}
			}
		}()
	}

	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
	}
	in.CheckpointAll(ctx)
	close(done)
	wg.Wait()

	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Post-seal, the day answers from its sealed file with the full
	// record count the batch emitter would give it.
	var want uint64
	w2 := simnet.NewWorld(7, simnet.Scale{ADSL: 8, FTTH: 4})
	w2.EmitDay(day, func(*flowrec.Record) { want++ })
	aggs, err := New(pcfg).Aggregate(ctx, []time.Time{day})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Flows != want {
		t.Fatalf("sealed day aggregates %d flows, want %d", aggs[0].Flows, want)
	}
}
