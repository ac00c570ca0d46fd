package flowrec

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Pushdown-boundary regression tests. Pred documents every range as
// inclusive, and matchStats must keep a block whose min/max stats
// merely *touch* the predicate — a strict comparison in the wrong
// direction silently drops exactly the records sitting on the bound,
// and only on v3 (block-skipping) reads, so v1 and v3 would disagree.
// These tests pin the inclusive contract on records and block stats
// placed exactly on the boundaries, for every predicate dimension, and
// assert v1-fallback/v3-pushdown identity around each bound.

// boundaryRecords builds 3 full blocks of ms-granular, Start-ascending
// records whose per-block stats are fully controlled:
//
//	block 0: SrvPort [   0,  999], ProtoTCP, TechADSL
//	block 1: SrvPort [1000, 1999], ProtoUDP, TechADSL
//	block 2: SrvPort [2000, 2999], ProtoTCP, TechFTTH
//
// so each dimension has a block boundary to land predicates on.
func boundaryRecords(day time.Time) []Record {
	n := 3 * colBlockRows
	recs := make([]Record, n)
	for i := range recs {
		b := i / colBlockRows
		r := &recs[i]
		r.Start = day.Add(time.Duration(3*i) * time.Millisecond)
		r.SrvPort = uint16(1000*b + i%1000)
		r.Proto = ProtoTCP
		if b == 1 {
			r.Proto = ProtoUDP
		}
		r.Tech = TechADSL
		if b == 2 {
			r.Tech = TechFTTH
		}
		r.SubID = uint32(i)
		r.BytesDown = 1 << 10
		r.BytesUp = 1 << 9
		r.PktsUp, r.PktsDown = 1, 1
	}
	return recs
}

// boundaryStores writes the same record set as one v1 and one v3 day.
func boundaryStores(t *testing.T) (v1, v3 *Store, recs []Record) {
	t.Helper()
	recs = boundaryRecords(colTestDay)
	s1, err := OpenStoreFormat(t.TempDir(), FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStoreFormat(t.TempDir(), FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	writeDayRecords(t, s1, colTestDay, recs)
	writeDayRecords(t, s3, colTestDay, recs)
	return s1, s3, recs
}

// expect filters recs by an independent restatement of the inclusive
// contract — deliberately not via Pred.Match, so a bug there cannot
// vouch for itself.
func expect(recs []Record, keep func(*Record) bool) []Record {
	var out []Record
	for i := range recs {
		if keep(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

func assertSame(t *testing.T, name string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d mismatch:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
}

// TestPredStartBoundaryInclusive: StartMin equal to the last Start of a
// block (its stats startMax) and StartMax equal to the first Start of a
// later block (its stats startMin) must keep both edge blocks and
// deliver both boundary records, on v1 and v3 alike.
func TestPredStartBoundaryInclusive(t *testing.T) {
	s1, s3, recs := boundaryStores(t)
	lo := recs[colBlockRows-1].Start // block 0's max
	hi := recs[2*colBlockRows].Start // block 2's min
	pred := &Pred{StartMin: lo, StartMax: hi}
	want := expect(recs, func(r *Record) bool {
		return !r.Start.Before(lo) && !r.Start.After(hi)
	})
	if len(want) != colBlockRows+2 {
		t.Fatalf("test geometry broken: %d expected records", len(want))
	}
	for _, s := range []struct {
		name  string
		store *Store
	}{{"v1", s1}, {"v3", s3}} {
		got := readAll(t, s.store, colTestDay, ColScan{Pred: pred})
		assertSame(t, s.name, got, want)
		if !got[0].Start.Equal(lo) || !got[len(got)-1].Start.Equal(hi) {
			t.Errorf("%s: boundary records missing: first=%v last=%v", s.name, got[0].Start, got[len(got)-1].Start)
		}
	}

	// One millisecond past the bound excludes exactly the boundary
	// records (the grid is 3ms, so nothing else moves).
	tight := &Pred{StartMin: lo.Add(time.Millisecond), StartMax: hi.Add(-time.Millisecond)}
	for _, s := range []struct {
		name  string
		store *Store
	}{{"v1", s1}, {"v3", s3}} {
		got := readAll(t, s.store, colTestDay, ColScan{Pred: tight})
		if len(got) != colBlockRows {
			t.Errorf("%s: ±1ms pred matched %d records, want %d", s.name, len(got), colBlockRows)
		}
	}
}

// TestPredSrvPortBoundaryInclusive: a port range ending exactly on a
// block's min/max stats keeps the block; ports equal to Lo and Hi
// match. Non-touching blocks must actually be skipped (the pushdown is
// real, not a full scan that happens to filter right).
func TestPredSrvPortBoundaryInclusive(t *testing.T) {
	_, s3, recs := boundaryStores(t)
	pred := &Pred{HasSrvPort: true, SrvPortLo: 1000, SrvPortHi: 1999}
	want := expect(recs, func(r *Record) bool { return r.SrvPort >= 1000 && r.SrvPort <= 1999 })
	if len(want) != colBlockRows {
		t.Fatalf("test geometry broken: %d expected records", len(want))
	}
	skipped0 := metrics.GetCounter("store.blocks_skipped").Load()
	got := readAll(t, s3, colTestDay, ColScan{Pred: pred})
	assertSame(t, "v3", got, want)
	if d := metrics.GetCounter("store.blocks_skipped").Load() - skipped0; d < 2 {
		t.Errorf("blocks_skipped advanced by %d, want >= 2 (blocks 0 and 2 cannot match)", d)
	}

	// Straddling a block edge: [999, 1000] touches block 0's srvPortMax
	// and block 1's srvPortMin; both bounds are inclusive.
	edge := &Pred{HasSrvPort: true, SrvPortLo: 999, SrvPortHi: 1000}
	wantEdge := expect(recs, func(r *Record) bool { return r.SrvPort >= 999 && r.SrvPort <= 1000 })
	if len(wantEdge) == 0 {
		t.Fatal("test geometry broken: no records on the port edge")
	}
	assertSame(t, "v3-edge", readAll(t, s3, colTestDay, ColScan{Pred: edge}), wantEdge)
}

// TestPredProtoTechBoundary: exact-match dimensions at block-stat
// boundaries — a homogeneous block whose protoMin==protoMax equals the
// predicate value must be kept, all-different blocks skipped.
func TestPredProtoTechBoundary(t *testing.T) {
	s1, s3, recs := boundaryStores(t)
	cases := []struct {
		name string
		pred *Pred
		keep func(*Record) bool
	}{
		{"proto", &Pred{HasProto: true, Proto: ProtoUDP},
			func(r *Record) bool { return r.Proto == ProtoUDP }},
		{"tech", &Pred{HasTech: true, Tech: TechFTTH},
			func(r *Record) bool { return r.Tech == TechFTTH }},
	}
	for _, c := range cases {
		want := expect(recs, c.keep)
		if len(want) != colBlockRows {
			t.Fatalf("%s: test geometry broken: %d expected records", c.name, len(want))
		}
		assertSame(t, c.name+"-v1", readAll(t, s1, colTestDay, ColScan{Pred: c.pred}), want)
		assertSame(t, c.name+"-v3", readAll(t, s3, colTestDay, ColScan{Pred: c.pred}), want)
	}
}

// TestPredV1V3IdentityAroundBounds sweeps predicates one step either
// side of every boundary and requires the v1 per-record fallback and
// the v3 block-skipping pushdown to return byte-identical record
// streams — the invariant the pushdown must never trade away.
func TestPredV1V3IdentityAroundBounds(t *testing.T) {
	s1, s3, recs := boundaryStores(t)
	b0max := recs[colBlockRows-1].Start
	b1min := recs[colBlockRows].Start
	preds := []*Pred{
		{StartMin: b0max}, {StartMin: b0max.Add(time.Millisecond)}, {StartMin: b0max.Add(-time.Millisecond)},
		{StartMax: b1min}, {StartMax: b1min.Add(time.Millisecond)}, {StartMax: b1min.Add(-time.Millisecond)},
		{HasSrvPort: true, SrvPortLo: 999, SrvPortHi: 999},
		{HasSrvPort: true, SrvPortLo: 1000, SrvPortHi: 1000},
		{HasSrvPort: true, SrvPortLo: 1999, SrvPortHi: 2000},
		{HasSrvPort: true, SrvPortLo: 2999, SrvPortHi: 65535},
		{HasProto: true, Proto: ProtoTCP},
		{HasTech: true, Tech: TechADSL},
		{StartMin: b0max, StartMax: b1min, HasSrvPort: true, SrvPortLo: 0, SrvPortHi: 1999,
			HasProto: true, Proto: ProtoUDP, HasTech: true, Tech: TechADSL},
	}
	for i, pred := range preds {
		got1 := readAll(t, s1, colTestDay, ColScan{Pred: pred})
		got3 := readAll(t, s3, colTestDay, ColScan{Pred: pred})
		if len(got1) != len(got3) {
			t.Fatalf("pred %d: v1=%d v3=%d records", i, len(got1), len(got3))
		}
		for j := range got1 {
			if !reflect.DeepEqual(got1[j], got3[j]) {
				t.Fatalf("pred %d: record %d differs between v1 and v3:\n v1 %+v\n v3 %+v", i, j, got1[j], got3[j])
			}
		}
	}
}
