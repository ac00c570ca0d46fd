package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/simnet"
)

// Day-rollover boundary behaviour, pinned with hand-built records so
// each edge is explicit rather than hoped-for in simulated traffic:
// a flow that straddles midnight is cut into the day it started, the
// grace window holds a day open while its late flows can still
// arrive, and a calendar day the clock crosses without traffic seals
// as an empty — but valid — day file.

// sampleRecord pulls one real record off a stream so synthetic tests
// inherit a fully-populated record without knowing field invariants.
func sampleRecord(t *testing.T) flowrec.Record {
	t.Helper()
	w := simnet.NewWorld(ingestSeed, ingestScale)
	src := w.Stream(ingestDays(7, 1))
	var sr simnet.StreamRecord
	if !src.Next(&sr) {
		t.Fatal("stream produced no records")
	}
	return sr.Rec
}

// at returns a record's export time.
func exportTime(r *flowrec.Record) time.Time { return r.Start.Add(r.Duration) }

func TestStraddlerCutIntoStartDay(t *testing.T) {
	lake := newTestLake(t)
	cfg := lake.config()
	cfg.Grace = 2 * time.Hour
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	base := sampleRecord(t)
	dayD := simnet.SpanStart.AddDate(0, 0, 100)
	dayE := dayD.AddDate(0, 0, 1)

	mk := func(start time.Time, dur time.Duration) flowrec.Record {
		r := base
		r.Start, r.Duration = start, dur
		return r
	}

	recA := mk(dayD.Add(22*time.Hour), time.Second)
	recS := mk(dayD.Add(23*time.Hour+30*time.Minute), time.Hour) // ends 00:30 next day
	recB := mk(dayE.Add(time.Hour), time.Second)

	for _, r := range []flowrec.Record{recA, recS, recB} {
		r := r
		if err := in.Ingest(ctx, &r, exportTime(&r)); err != nil {
			t.Fatal(err)
		}
	}

	// The straddler exported after midnight, but it belongs to dayD —
	// and dayD is still open: its grace window (02:00 next day) has
	// not closed at watermark 01:00:01.
	if lake.storage.HasDay(dayD) {
		t.Fatal("dayD sealed inside its grace window")
	}
	if got := in.OpenDays(); len(got) != 2 || !got[0].Equal(dayD) || !got[1].Equal(dayE) {
		t.Fatalf("open days = %v, want [dayD dayE]", got)
	}

	// A record at 03:00 pushes the watermark past dayD's grace
	// deadline mid-day: dayD seals, dayE stays open.
	recC := mk(dayE.Add(3*time.Hour), time.Second)
	if err := in.Ingest(ctx, &recC, exportTime(&recC)); err != nil {
		t.Fatal(err)
	}
	if !lake.storage.HasDay(dayD) {
		t.Fatal("dayD not sealed after its grace window closed")
	}
	if lake.storage.HasDay(dayE) {
		t.Fatal("dayE sealed while current")
	}

	var n, straddlers int
	if err := lake.storage.ReadDayCols(dayD, flowrec.ColScan{}, func(r *flowrec.Record) error {
		n++
		if exportTime(r).After(dayE) {
			straddlers++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("sealed dayD holds %d records, want 2 (recA + straddler)", n)
	}
	if straddlers != 1 {
		t.Fatalf("sealed dayD holds %d midnight straddlers, want 1", straddlers)
	}

	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := lake.storage.ReadDayCols(dayE, flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("sealed dayE holds %d records, want 2 (recB + recC)", n)
	}
}

func TestZeroRecordDaySealsEmptyButValid(t *testing.T) {
	lake := newTestLake(t)
	cfg := lake.config()
	cfg.Grace = 2 * time.Hour
	cfg.SealEmptyDays = true
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	base := sampleRecord(t)
	dayD := simnet.SpanStart.AddDate(0, 0, 200)
	gap := dayD.AddDate(0, 0, 1)
	dayF := dayD.AddDate(0, 0, 2)

	r1 := base
	r1.Start, r1.Duration = dayD.Add(12*time.Hour), time.Second
	if err := in.Ingest(ctx, &r1, exportTime(&r1)); err != nil {
		t.Fatal(err)
	}
	// The next flow arrives two days later: the probe was up, the
	// line was silent. Crossing the boundary must seal dayD (overdue)
	// and the gap day (empty), leaving only dayF open.
	r2 := base
	r2.Start, r2.Duration = dayF.Add(12*time.Hour), time.Second
	if err := in.Ingest(ctx, &r2, exportTime(&r2)); err != nil {
		t.Fatal(err)
	}

	if !lake.storage.HasDay(dayD) {
		t.Fatal("overdue dayD not sealed")
	}
	if !lake.storage.HasDay(gap) {
		t.Fatal("silent gap day not sealed as an empty day")
	}
	if got := in.OpenDays(); len(got) != 1 || !got[0].Equal(dayF) {
		t.Fatalf("open days = %v, want [dayF]", got)
	}

	// The empty day is valid and readable: zero records, and its
	// canonical aggregate equals a genuinely empty fold of that day.
	n := 0
	if err := lake.storage.ReadDayCols(gap, flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil }); err != nil {
		t.Fatalf("reading empty day: %v", err)
	}
	if n != 0 {
		t.Fatalf("empty day holds %d records", n)
	}
	got := lakeCanon(t, lake.storage, gap)
	want, err := analytics.CanonicalBytes(analytics.NewAggregator(gap, classify.Default()).Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("empty day's canonical aggregate differs from an empty fold")
	}

	days, err := lake.storage.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 2 || !days[0].Equal(dayD) || !days[1].Equal(gap) {
		t.Fatalf("lake lists %v, want [dayD gap]", days)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// lagOver is the lag gauge's definition spelled out over the open
// days: how far the stream clock has run past the grace deadline of
// the most overdue open day, zero when none is overdue.
func lagOver(in *Ingester, grace time.Duration) int64 {
	var lag time.Duration
	for _, day := range in.OpenDays() {
		if d := in.Watermark().Sub(day.AddDate(0, 0, 1).Add(grace)); d > lag {
			lag = d
		}
	}
	return int64(lag / time.Second)
}

// TestLagGaugeTracksOverdueDays: ingest.lag_seconds reads what its
// definition says after every Ingest — through rollovers that seal a
// day mid-stream and through failed seals that keep an overdue day
// open — and after every SealAll, one of them run while a day is
// overdue.
func TestLagGaugeTracksOverdueDays(t *testing.T) {
	days := ingestDays(7, 3)
	w := simnet.NewWorld(ingestSeed, ingestScale)
	lake := newTestLake(t)
	cfg := lake.config()
	cfg.Grace = 2 * time.Hour
	// Every day's first seal attempt fails: the day stays open, overdue,
	// until the stream clock has moved 30 minutes past the failure.
	plan, err := faultinject.Parse("seal:p=1,fails=1,transient")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sealsBefore, failsBefore := mSeals.Load(), mSealFailures.Load()

	check := func(when string) int64 {
		t.Helper()
		want := lagOver(in, cfg.Grace)
		if got := mLagSeconds.Load(); got != want {
			t.Fatalf("%s (watermark %s, open %v): lag gauge reads %d s, want %d s",
				when, in.Watermark().Format(time.RFC3339), in.OpenDays(), got, want)
		}
		return want
	}
	src := w.Stream(days)
	var sr simnet.StreamRecord
	var overdue int
	for src.Next(&sr) {
		_ = in.Ingest(ctx, &sr.Rec, sr.At) // a failed seal surfaces here and leaves the day open
		if check("after Ingest") == 0 {
			continue
		}
		if overdue++; overdue == 1 {
			// Seal the overdue day out of band: the gauge must drop it.
			_ = in.SealAll(ctx)
			check("after SealAll with a day overdue")
		}
	}
	if mSeals.Load() == sealsBefore || mSealFailures.Load() == failsBefore || overdue == 0 {
		t.Fatalf("vacuous: %d seals, %d failed seals, %d records with a day overdue",
			mSeals.Load()-sealsBefore, mSealFailures.Load()-failsBefore, overdue)
	}
	for i := 0; len(in.OpenDays()) > 0; i++ {
		if i == 2 {
			t.Fatalf("days %v still open after two SealAll passes", in.OpenDays())
		}
		_ = in.SealAll(ctx)
		check("after SealAll")
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSealCountsRecordsTheWALLost: a WAL segment damaged after its
// records were absorbed replays only up to the damage. The day still
// seals — the WAL is all that is durable — holding exactly the intact
// prefix, and ingest.seal_short_records counts every record behind
// the damage.
func TestSealCountsRecordsTheWALLost(t *testing.T) {
	day := ingestDays(7, 1)[0]
	w := simnet.NewWorld(ingestSeed, ingestScale)
	lake := newTestLake(t)
	in, err := Open(lake.config())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var absorbed []flowrec.Record
	src := w.Stream([]time.Time{day})
	var sr simnet.StreamRecord
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			t.Fatal(err)
		}
		q := sr.Rec
		q.Quantize()
		absorbed = append(absorbed, q)
	}
	in.CheckpointAll(ctx) // flushes the segment
	if got := in.OpenDays(); len(got) != 1 || !got[0].Equal(day) {
		t.Fatalf("open days = %v, want [%s]", got, day.Format("2006-01-02"))
	}

	// Damage the body of the middle frame past its fixed 16 bytes: its
	// varint fields no longer decode.
	seg := filepath.Join(walDayDir(lake.walDir, day), "seg-000000.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	keep := len(absorbed) / 2
	off := 4 // the segment's magic
	for i := 0; i < keep; i++ {
		size, n := binary.Uvarint(data[off:])
		off += n + int(size)
	}
	size, n := binary.Uvarint(data[off:])
	for i := off + n + 16; i < off+n+int(size); i++ {
		data[i] = 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	shortBefore := mSealShort.Load()
	if err := in.SealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := mSealShort.Load()-shortBefore, uint64(len(absorbed)-keep); got != want {
		t.Errorf("ingest.seal_short_records moved by %d, want %d (frames behind the damage)", got, want)
	}
	agg := analytics.NewAggregator(day, classify.Default())
	for i := range absorbed[:keep] {
		agg.Add(&absorbed[i])
	}
	want, err := analytics.CanonicalBytes(agg.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lakeCanon(t, lake.storage, day), want) {
		t.Errorf("sealed day is not the %d records in front of the damage", keep)
	}
}
