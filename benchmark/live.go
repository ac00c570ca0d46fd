package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// bufferStream drains up to limit records of the world's export-order
// stream into memory (0 = all), so the window replays records rather
// than generating them. sizeHint pre-sizes the buffer: growing a
// quarter-gigabyte slice by appends re-faults it several times over,
// and page-fault time is the noisiest part of set-up on a shared VM.
func bufferStream(w *simnet.World, days []time.Time, limit, sizeHint int) []simnet.StreamRecord {
	src := w.Stream(days)
	recs := make([]simnet.StreamRecord, 0, max(limit, sizeHint))
	var sr simnet.StreamRecord
	for (limit == 0 || len(recs) < limit) && src.Next(&sr) {
		recs = append(recs, sr)
	}
	return recs
}

// openIngester wires an Ingester the way cmd/edged ships it: row-v1
// seals, background compaction to v3, 8 h grace, edged's retry policy;
// the checkpoint interval is the scale's (edged's 4,096 at full).
func openIngester(cfg config, lakeDir string, tr *tracer, parent *atomic.Int64) (*ingest.Ingester, *flowrec.Store, error) {
	store, err := flowrec.OpenStoreFormat(lakeDir, flowrec.FormatV1)
	if err != nil {
		return nil, nil, err
	}
	var compactor ingest.Compactor = store
	if tr != nil {
		compactor = &tracedCompactor{Compactor: store, tr: tr, parent: parent}
	}
	in, err := ingest.Open(ingest.Config{
		Storage:         storageFor(store, filepath.Join(lakeDir, ".agg"), "", tr, parent),
		WALDir:          filepath.Join(lakeDir, flowrec.WALDirName),
		CheckpointEvery: cfg.size.checkpointEvery,
		Compactor:       compactor,
		CompactFormat:   flowrec.FormatV3,
		Retry:           retry.Policy{Attempts: 3, Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: cfg.seed},
	})
	return in, store, err
}

func runLiveIngest(cfg config, root string, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := &window{}
	s := cfg.size
	t0 := time.Now()
	world := simnet.NewWorld(cfg.seed, s.liveScale)
	// About 160 records per subscriber line and day, measured.
	recs := bufferStream(world, s.liveDays, 0, 160*(s.liveScale.ADSL+s.liveScale.FTTH)*len(s.liveDays))
	if len(recs) == 0 {
		return nil, fmt.Errorf("the stream produced no records")
	}
	lakeDir := filepath.Join(root, "lake")
	var cur atomic.Int64
	in, _, err := openIngester(cfg, lakeDir, tr, &cur)
	if err != nil {
		return nil, err
	}
	w.setup = time.Since(t0)
	w.fixture = []kv{
		{"adsl_lines", int64(s.liveScale.ADSL)}, {"ftth_lines", int64(s.liveScale.FTTH)},
		{"stream_days", int64(len(s.liveDays))}, {"stream_records_buffered", int64(len(recs))},
	}

	// One op is one checkpoint cycle: checkpointEvery records through
	// Ingest, which ends in the day's checkpoint (and, once, the
	// rollover seal). The feed stops at the clock; SealAll and Close
	// run inside the window because durability is the work counted.
	b := beginWindow()
	fed := 0
	for i := 0; fed < len(recs) && (s.liveWhole || time.Since(b.t0).Seconds() < cfg.seconds); i++ {
		traced := i%2 == 1
		tr.enable(traced)
		op := tr.start("driver.op", 0)
		id := tr.start("ingest.ingest", op)
		cur.Store(id)
		t1 := time.Now()
		var err error
		end := min(fed+s.checkpointEvery, len(recs))
		for ; fed < end && err == nil; fed++ {
			err = in.Ingest(ctx, &recs[fed].Rec, recs[fed].At)
		}
		d := time.Since(t1)
		tr.end(id)
		tr.end(op)
		w.op(d, err, traced)
		if err != nil {
			break
		}
	}
	tr.enable(true)
	id := tr.start("ingest.seal_close", 0)
	cur.Store(id)
	err = in.SealAll(ctx)
	if cerr := in.Close(ctx); err == nil {
		err = cerr
	}
	tr.end(id)
	b.end(w)
	if err != nil {
		w.check("seal and close", false, "%v", err)
	}

	w.work = float64(fed)
	w.workPerS = float64(fed) / w.wall.Seconds()
	w.records = uint64(fed)
	w.diskBytes = dirBytes(lakeDir)
	w.fixture = append(w.fixture, kv{"stream_records_fed", int64(fed)}, kv{"tree_bytes_after_close", w.diskBytes})
	w.counts = []kv{{"records", int64(fed)}, {"ops", int64(w.attempted)}, {"seals", w.delta["ingest.seals"]}}

	// After the window: the sealed day files must hold exactly what was
	// fed, and aggregate to the same bytes as a lake written in one
	// batch from the same records.
	ref, err := flowrec.OpenStoreFormat(filepath.Join(root, "reference"), flowrec.FormatV3)
	if err != nil {
		return nil, err
	}
	perDay := map[time.Time][]*flowrec.Record{}
	for i := range recs[:fed] {
		d := recs[i].Rec.Day()
		perDay[d] = append(perDay[d], &recs[i].Rec)
	}
	var days []time.Time
	for d := range perDay {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	refStorage := core.NewDiskStorage(ref, "")
	for _, d := range days {
		if _, err := refStorage.WriteDay(d, func(write func(*flowrec.Record) error) error {
			for _, r := range perDay[d] {
				if err := write(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	sealed, err := flowrec.OpenStore(lakeDir)
	if err != nil {
		return nil, err
	}
	got, err := aggregateCanonical(ctx, cfg.seed, s.liveScale, sealed, days)
	if err != nil {
		return nil, fmt.Errorf("aggregating the streamed lake: %w", err)
	}
	want, err := aggregateCanonical(ctx, cfg.seed, s.liveScale, ref, days)
	if err != nil {
		return nil, fmt.Errorf("aggregating the reference lake: %w", err)
	}
	w.check("sealed record count", got.flows == uint64(fed) && len(got.canon) == len(days),
		"sealed days hold %d records over %d day(s), %d were fed over %d", got.flows, len(got.canon), fed, len(days))
	same := len(got.canon) == len(want.canon)
	for i := 0; same && i < len(got.canon); i++ {
		same = bytes.Equal(got.canon[i], want.canon[i])
	}
	w.check("streamed equals batch", same, "canonical day aggregates of the streamed lake and of a batch-written lake of the same records")
	return w, nil
}

type canonicalLake struct {
	flows uint64
	canon [][]byte
}

// aggregateCanonical folds days of store through a fresh cache-less
// pipeline and returns each present day's canonical bytes.
func aggregateCanonical(ctx context.Context, seed uint64, scale simnet.Scale, store *flowrec.Store, days []time.Time) (canonicalLake, error) {
	var out canonicalLake
	p := core.New(core.Config{Seed: seed, Scale: scale, Store: store})
	aggs, err := p.Aggregate(ctx, days)
	if err != nil {
		return out, err
	}
	for _, a := range aggs {
		b, err := analytics.CanonicalBytes(a)
		if err != nil {
			return out, err
		}
		out.flows += a.Flows
		out.canon = append(out.canon, b)
	}
	return out, nil
}
