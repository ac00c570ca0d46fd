package analytics

// Property tests for the DayAgg merge monoid (merge.go, shard.go):
// K-shard aggregation must be byte-identical to the serial fold for
// any K, Merge must be associative and order-insensitive, a gob
// round-trip of partials (the agg-cache path) must change nothing,
// and — the metamorphic property the deterministic bottom-k RTT
// reservoir exists for — shuffling a day's input records must not
// move a single byte of the result.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/stats"
	"repro/internal/wire"
)

// genDayRecords fabricates a deterministic, deliberately messy day:
// many subscribers across both technologies, classified and unknown
// names, P2P and DNS flows, QUIC versions, RTT samples heavy enough
// to overflow a small reservoir's cap on some services — every DayAgg
// field gets exercised.
func genDayRecords(seed uint64, n int) []flowrec.Record {
	rng := stats.NewRand(seed)
	names := []string{
		"www.netflix.com", "scontent.xx.fbcdn.net", "www.youtube.com",
		"www.google.com", "instagram.com", "mmx-ds.cdn.whatsapp.net",
		"cdn.example.org", "static.example.net", "weird-host", "",
	}
	quicVers := []string{"Q035", "Q039", "Q043"}
	out := make([]flowrec.Record, n)
	for i := range out {
		sub := uint32(1 + rng.Intn(97))
		tech := flowrec.TechADSL
		if sub%3 == 0 {
			tech = flowrec.TechFTTH
		}
		r := flowrec.Record{
			Client:     wire.AddrFrom(10, 0, byte(sub>>8), byte(sub)),
			Server:     wire.AddrFrom(93, byte(rng.Intn(5)), byte(rng.Intn(7)), byte(rng.Intn(11))),
			CliPort:    uint16(1024 + rng.Intn(60000)),
			SrvPort:    443,
			SubID:      sub,
			Tech:       tech,
			Proto:      flowrec.ProtoTCP,
			Web:        flowrec.WebTLS,
			ServerName: names[rng.Intn(len(names))],
			NameSrc:    flowrec.NameSNI,
			Start:      testDay.Add(time.Duration(rng.Intn(24*3600)) * time.Second),
			BytesDown:  uint64(rng.Intn(5 << 20)),
			BytesUp:    uint64(rng.Intn(1 << 20)),
		}
		switch rng.Intn(10) {
		case 0:
			r.Web = flowrec.WebQUIC
			r.Proto = flowrec.ProtoUDP
			r.QUICVer = quicVers[rng.Intn(len(quicVers))]
		case 1:
			r.Web = flowrec.WebP2P
			r.ServerName = ""
		case 2:
			r.Web = flowrec.WebDNS
			r.Proto = flowrec.ProtoUDP
		case 3:
			r.Web = flowrec.WebHTTP2
		}
		if rng.Bool(0.7) {
			r.RTTSamples = uint32(1 + rng.Intn(9))
			r.RTTMin = time.Duration(1+rng.Intn(200)) * time.Millisecond
		}
		out[i] = r
	}
	return out
}

// sliceSource serves a fixed record slice as a day source, handing the
// callback a reused buffer record exactly like the store decoder does
// — any aliasing bug in the shard fan-out shows up as corruption.
func sliceSource(recs []flowrec.Record) FuncSource {
	return func(day time.Time, fn func(*flowrec.Record)) error {
		if len(recs) == 0 {
			return ErrNoData
		}
		var buf flowrec.Record
		for i := range recs {
			buf = recs[i]
			fn(&buf)
		}
		return nil
	}
}

func canon(t *testing.T, agg *DayAgg) []byte {
	t.Helper()
	b, err := CanonicalBytes(agg)
	if err != nil {
		t.Fatalf("CanonicalBytes: %v", err)
	}
	return b
}

func foldSerial(recs []flowrec.Record) *DayAgg {
	a := NewAggregator(testDay, nil)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Result()
}

// TestShardMergeEquivalence is the tentpole property: for shards in
// {1, 2, 3, 8}, the sharded aggregation is byte-identical to the
// serial fold, across several generated days.
func TestShardMergeEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		recs := genDayRecords(seed, 4000)
		want := canon(t, foldSerial(recs))
		for _, k := range []int{1, 2, 3, 8} {
			agg, err := shardDay(context.Background(), sliceSource(recs), testDay, nil, k, nil, 0, false, nil)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, k, err)
			}
			if got := canon(t, agg); !bytes.Equal(got, want) {
				t.Errorf("seed %d: %d-shard aggregate differs from serial fold", seed, k)
			}
		}
	}
}

// TestShardedRunReport drives the sharding through the public
// RunReport surface, auto-resolution included.
func TestShardedRunReport(t *testing.T) {
	recs := genDayRecords(3, 3000)
	want := canon(t, foldSerial(recs))
	for _, k := range []int{0, 2, 5} {
		aggs, dayErrs, err := RunReport(context.Background(), sliceSource(recs),
			[]time.Time{testDay}, nil, RunConfig{Workers: 2, ShardsPerDay: k})
		if err != nil || len(dayErrs) > 0 {
			t.Fatalf("shards %d: err=%v dayErrs=%v", k, err, dayErrs)
		}
		if len(aggs) != 1 {
			t.Fatalf("shards %d: %d aggs", k, len(aggs))
		}
		if got := canon(t, aggs[0]); !bytes.Equal(got, want) {
			t.Errorf("ShardsPerDay=%d differs from serial fold", k)
		}
	}
}

// shardPartials splits recs over k aggregators by client-hash shard
// and returns the k partials.
func shardPartials(recs []flowrec.Record, k int) []*Partial {
	aggs := make([]*Aggregator, k)
	for i := range aggs {
		aggs[i] = NewAggregator(testDay, nil)
	}
	for i := range recs {
		aggs[recs[i].Shard(k)].Add(&recs[i])
	}
	parts := make([]*Partial, k)
	for i, a := range aggs {
		parts[i] = a.Partial()
	}
	return parts
}

// clonePartials deep-copies partials through gob, so destructive use
// of one copy cannot contaminate another merge order.
func clonePartials(t *testing.T, parts []*Partial) []*Partial {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(parts); err != nil {
		t.Fatalf("encode partials: %v", err)
	}
	var out []*Partial
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode partials: %v", err)
	}
	return out
}

// TestMergeOrderInsensitive merges the same shard partials under
// random permutations and groupings; every order must finish to the
// same canonical bytes, and must match the serial fold.
func TestMergeOrderInsensitive(t *testing.T) {
	const k = 5
	recs := genDayRecords(11, 3000)
	want := canon(t, foldSerial(recs))
	parts := shardPartials(recs, k)

	rng := stats.NewRand(99)
	for trial := 0; trial < 6; trial++ {
		perm := []int{0, 1, 2, 3, 4}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		cp := clonePartials(t, parts)
		merged := NewPartial(testDay)
		for _, i := range perm {
			if err := merged.Merge(cp[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := canon(t, merged.Finish()); !bytes.Equal(got, want) {
			t.Errorf("trial %d: permutation %v differs from serial fold", trial, perm)
		}
	}
}

// TestMergeAssociative checks (a·b)·c == a·(b·c) for shard partials —
// the property that lets the reduce tree take any shape.
func TestMergeAssociative(t *testing.T) {
	recs := genDayRecords(23, 2400)
	parts := shardPartials(recs, 3)

	left := clonePartials(t, parts)
	lm := NewPartial(testDay)
	for _, p := range []*Partial{left[0], left[1]} {
		if err := lm.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := lm.Merge(left[2]); err != nil {
		t.Fatal(err)
	}

	right := clonePartials(t, parts)
	rm := NewPartial(testDay)
	if err := rm.Merge(right[1]); err != nil {
		t.Fatal(err)
	}
	if err := rm.Merge(right[2]); err != nil {
		t.Fatal(err)
	}
	outer := NewPartial(testDay)
	if err := outer.Merge(right[0]); err != nil {
		t.Fatal(err)
	}
	if err := outer.Merge(rm); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(canon(t, lm.Finish()), canon(t, outer.Finish())) {
		t.Error("(a·b)·c != a·(b·c)")
	}
}

// TestMergeIdentityAndDayMismatch covers the monoid identity and the
// one refusal Merge makes.
func TestMergeIdentityAndDayMismatch(t *testing.T) {
	recs := genDayRecords(5, 500)
	parts := shardPartials(recs, 1)
	want := canon(t, foldSerial(recs))

	id := NewPartial(testDay)
	if err := id.Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	if got := canon(t, id.Finish()); !bytes.Equal(got, want) {
		t.Error("identity · p differs from p")
	}

	p := NewPartial(testDay)
	q := NewPartial(testDay.AddDate(0, 0, 1))
	q.Agg.Flows = 1
	if err := p.Merge(q); err == nil {
		t.Error("merging different days should fail")
	}
}

// TestPartialGobRoundTrip is the agg-cache property: partials that
// went through gob (as the partial cache stores them) must merge to
// the same bytes as live partials.
func TestPartialGobRoundTrip(t *testing.T) {
	recs := genDayRecords(17, 3000)
	want := canon(t, foldSerial(recs))
	parts := clonePartials(t, shardPartials(recs, 4))
	agg, err := MergePartials(testDay, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := canon(t, agg); !bytes.Equal(got, want) {
		t.Error("gob round-tripped partials merge differently")
	}
}

// TestInputOrderMetamorphic shuffles a day's records under a fixed
// stats.Rand seed and asserts the aggregate is unchanged, byte for
// byte. Two DayAgg paths depend on more than plain commutative sums
// for this to hold: the RTT reservoir keeps the bottom-k by a
// seed-free hash of flow identity (not arrival order), and every map
// key set is a pure function of the record set. Everything else is
// counters, which commute trivially.
func TestInputOrderMetamorphic(t *testing.T) {
	recs := genDayRecords(31, 5000)
	want := canon(t, foldSerial(recs))
	for _, seed := range []uint64{1, 2, 3} {
		shuffled := append([]flowrec.Record(nil), recs...)
		rng := stats.NewRand(seed)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		if got := canon(t, foldSerial(shuffled)); !bytes.Equal(got, want) {
			t.Errorf("shuffle seed %d changed the aggregate", seed)
		}
		// And the sharded path over the shuffle too.
		agg, err := shardDay(context.Background(), sliceSource(shuffled), testDay, nil, 3, nil, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := canon(t, agg); !bytes.Equal(got, want) {
			t.Errorf("shuffle seed %d changed the 3-shard aggregate", seed)
		}
	}
}

// TestRTTPartialOverCap forces both sides of a merge past the
// reservoir cap and checks the merged bottom-k equals the bottom-k of
// the union — with a tiny cap so the trim path actually runs.
func TestRTTPartialOverCap(t *testing.T) {
	const cap = 8
	all := newRTTReservoir(cap)
	left := newRTTReservoir(cap)
	right := newRTTReservoir(cap)
	rng := stats.NewRand(77)
	for i := 0; i < 100; i++ {
		s := rttSample{hash: rng.Uint64(), ms: float64(rng.Intn(300))}
		all.add(s)
		if i%2 == 0 {
			left.add(s)
		} else {
			right.add(s)
		}
	}
	want := all.partial()
	lp, rp := left.partial(), right.partial()
	lp.merge(rp)
	if lp.Seen != want.Seen {
		t.Errorf("Seen = %d, want %d", lp.Seen, want.Seen)
	}
	if fmt.Sprint(lp.Hash) != fmt.Sprint(want.Hash) || fmt.Sprint(lp.Ms) != fmt.Sprint(want.Ms) {
		t.Errorf("merged bottom-%d differs from union bottom-%d", cap, cap)
	}
}

// TestResolveShards pins the auto-sizing contract.
func TestResolveShards(t *testing.T) {
	if got := ResolveShards(4, 1); got != 4 {
		t.Errorf("explicit 4 -> %d", got)
	}
	if got := ResolveShards(1, 1); got != 1 {
		t.Errorf("explicit 1 -> %d", got)
	}
	if got := ResolveShards(0, 1<<20); got != 1 {
		t.Errorf("auto with huge worker pool -> %d, want 1", got)
	}
	if got := ResolveShards(0, 1); got < 1 || got > maxAutoShards {
		t.Errorf("auto -> %d, want within [1,%d]", got, maxAutoShards)
	}
}

// TestHourlyRatioEmpty pins the empty-input contract: no aggregates,
// no curve — not 144 zero points and not NaN.
func TestHourlyRatioEmpty(t *testing.T) {
	if pts := HourlyRatio(nil, nil, flowrec.TechADSL, 25); len(pts) != 0 {
		t.Errorf("HourlyRatio(nil, nil) = %d points, want 0", len(pts))
	}
}

// TestDailyVolumeDistEmpty: zero active days must quantile to 0, not
// NaN, so report tables never render NaN cells.
func TestDailyVolumeDistEmpty(t *testing.T) {
	dist := DailyVolumeDist(nil, flowrec.TechADSL, Down)
	if m := dist.Median(); m != 0 {
		t.Errorf("empty Median = %v, want 0", m)
	}
	if m := dist.Mean(); m != 0 {
		t.Errorf("empty Mean = %v, want 0", m)
	}
}
