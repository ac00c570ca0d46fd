package ingest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
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
