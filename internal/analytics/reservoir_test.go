package analytics

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/stats"
	"repro/internal/wire"
)

// rttRec builds a distinct RTT-carrying record toward an rttServices
// subject ("Facebook" via facebook.com), with i woven into the flow
// identity so every record hashes differently.
func rttRec(i int, rtt time.Duration) *flowrec.Record {
	return &flowrec.Record{
		Client:     wire.AddrFrom(10, 0, byte(i>>8), byte(i)),
		Server:     wire.AddrFrom(31, 13, 64, 1),
		CliPort:    uint16(20000 + i%40000),
		SrvPort:    443,
		SubID:      uint32(i),
		Tech:       flowrec.TechADSL,
		Proto:      flowrec.ProtoTCP,
		Web:        flowrec.WebTLS,
		ServerName: "www.facebook.com",
		NameSrc:    flowrec.NameSNI,
		Start:      testDay.Add(time.Duration(i) * time.Second),
		BytesDown:  1000,
		BytesUp:    100,
		RTTMin:     rtt,
		RTTSamples: 3,
	}
}

// aggregateRTT runs records through a fresh aggregator and returns the
// materialised Facebook sample.
func aggregateRTT(recs []*flowrec.Record) []float64 {
	a := NewAggregator(testDay, nil)
	for _, r := range recs {
		a.Add(r)
	}
	return a.Result().RTTMinMs["Facebook"]
}

func TestReservoirKeepsEverythingUnderCap(t *testing.T) {
	var recs []*flowrec.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rttRec(i, time.Duration(i+1)*time.Millisecond))
	}
	got := aggregateRTT(recs)
	if len(got) != 100 {
		t.Fatalf("kept %d samples, want all 100", len(got))
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if want := 100.0 * 101 / 2; sum != want {
		t.Errorf("sample sum = %v, want %v (values altered)", sum, want)
	}
}

func TestReservoirDeterministicAcrossOrderings(t *testing.T) {
	const n = 500
	res := newRTTReservoir(50)
	for i := 0; i < n; i++ {
		r := rttRec(i, time.Duration(i+1)*time.Millisecond)
		res.add(rttSample{hash: flowSampleHash(r), ms: float64(i + 1)})
	}
	forward := res.values()
	if len(forward) != 50 {
		t.Fatalf("kept %d, want 50", len(forward))
	}

	// Same records, reversed and interleaved orders: identical sample.
	for name, order := range map[string]func(i int) int{
		"reversed":    func(i int) int { return n - 1 - i },
		"interleaved": func(i int) int { return (i * 7) % n },
	} {
		res := newRTTReservoir(50)
		for i := 0; i < n; i++ {
			j := order(i)
			r := rttRec(j, time.Duration(j+1)*time.Millisecond)
			res.add(rttSample{hash: flowSampleHash(r), ms: float64(j + 1)})
		}
		got := res.values()
		if len(got) != len(forward) {
			t.Fatalf("%s: kept %d, want %d", name, len(got), len(forward))
		}
		for i := range got {
			if got[i] != forward[i] {
				t.Fatalf("%s: sample[%d] = %v, want %v", name, i, got[i], forward[i])
			}
		}
	}
}

// TestReservoirNotPrefixBiased is the regression for the bug this
// replaces: with values fed in ascending arrival order, a keep-first
// policy would retain exactly the lowest cap values. The hash-based
// reservoir must mix early and late arrivals.
func TestReservoirNotPrefixBiased(t *testing.T) {
	const n, cap = 2000, 100
	res := newRTTReservoir(cap)
	for i := 0; i < n; i++ {
		r := rttRec(i, time.Duration(i+1)*time.Millisecond)
		res.add(rttSample{hash: flowSampleHash(r), ms: float64(i)})
	}
	got := res.values()
	if len(got) != cap {
		t.Fatalf("kept %d, want %d", len(got), cap)
	}
	late := 0
	var mean float64
	for _, v := range got {
		if v >= n/2 {
			late++
		}
		mean += v
	}
	mean /= float64(len(got))
	if late == 0 {
		t.Error("no samples from the second half of the stream: prefix-biased")
	}
	// A uniform sample of 0..1999 has mean ~1000; allow a generous
	// band — catching truncation (mean ~50), not hash quality.
	if math.Abs(mean-float64(n)/2) > float64(n)/5 {
		t.Errorf("sample mean = %v, want ~%v for an unbiased sample", mean, n/2)
	}
}

func TestAggregatorRTTSampleDeterministicAcrossOrder(t *testing.T) {
	var fwd, rev []*flowrec.Record
	for i := 0; i < 300; i++ {
		fwd = append(fwd, rttRec(i, time.Duration(i%40+1)*time.Millisecond))
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		rev = append(rev, fwd[i])
	}
	a, b := aggregateRTT(fwd), aggregateRTT(rev)
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("kept %d/%d, want 300 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order-dependent aggregate: sample[%d] %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReservoirMatchesSortOracle pins the reservoir to its
// definition: the kept set is the first cap samples of all offered
// ones sorted by (hash, ms). The sizes straddle the heap's fill
// (cap) and run well past it, and the narrow hash and ms ranges force
// duplicate hashes and identical (hash, ms) pairs.
func TestReservoirMatchesSortOracle(t *testing.T) {
	const cap = 16
	rng := stats.NewRand(42)
	for _, n := range []int{cap - 5, cap, 2*cap - 1, 2 * cap, 2*cap + 1, 10 * cap} {
		for _, hashes := range []int{3 * cap, 1 << 30} {
			all := make([]rttSample, n)
			for i := range all {
				all[i] = rttSample{hash: uint64(rng.Intn(hashes)), ms: float64(rng.Intn(4))}
			}
			res := newRTTReservoir(cap)
			for _, s := range all {
				res.add(s)
			}
			want := slices.Clone(all)
			sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
			want = want[:min(n, cap)]
			got := res.partial()
			if got.Seen != uint64(n) {
				t.Errorf("n=%d hashes=%d: Seen = %d, want %d", n, hashes, got.Seen, n)
			}
			if len(got.Hash) != len(want) {
				t.Fatalf("n=%d hashes=%d: kept %d, want %d", n, hashes, len(got.Hash), len(want))
			}
			for i, w := range want {
				if got.Hash[i] != w.hash || got.Ms[i] != w.ms {
					t.Fatalf("n=%d hashes=%d: kept[%d] = (%d, %v), want (%d, %v)",
						n, hashes, i, got.Hash[i], got.Ms[i], w.hash, w.ms)
				}
			}
		}
	}
}
