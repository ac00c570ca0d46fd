package analytics

import (
	"errors"
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/wire"
)

var testDay = time.Date(2016, 5, 10, 0, 0, 0, 0, time.UTC)

// mkRec builds a minimal record for aggregation tests.
func mkRec(sub uint32, tech flowrec.AccessTech, name string, down, up uint64) *flowrec.Record {
	return &flowrec.Record{
		Client:     wire.AddrFrom(10, 0, byte(sub>>8), byte(sub)),
		Server:     wire.AddrFrom(93, 1, byte(sub>>8), byte(sub)),
		SubID:      sub,
		Tech:       tech,
		Proto:      flowrec.ProtoTCP,
		Web:        flowrec.WebTLS,
		ServerName: name,
		NameSrc:    flowrec.NameSNI,
		Start:      testDay.Add(12 * time.Hour),
		BytesDown:  down,
		BytesUp:    up,
	}
}

// feed pushes n copies of a record through an aggregator, bumping the
// client port so each is a distinct flow.
func feed(a *Aggregator, rec *flowrec.Record, n int) {
	for i := 0; i < n; i++ {
		r := *rec
		r.CliPort = uint16(40000 + i)
		a.Add(&r)
	}
}

func TestActivityFilter(t *testing.T) {
	a := NewAggregator(testDay, nil)
	// Sub 1: clearly active (12 flows, lots of bytes).
	feed(a, mkRec(1, flowrec.TechADSL, "example.org", 10<<20, 1<<20), 12)
	// Sub 2: enough bytes but too few flows.
	feed(a, mkRec(2, flowrec.TechADSL, "example.org", 10<<20, 1<<20), 5)
	// Sub 3: enough flows but too few bytes down.
	feed(a, mkRec(3, flowrec.TechADSL, "example.org", 1000, 1000), 15)
	// Sub 4: enough flows and down, not enough up.
	feed(a, mkRec(4, flowrec.TechFTTH, "example.org", 10<<20, 100), 15)
	agg := a.Result()
	adsl, ftth := agg.ActiveSubs()
	if adsl != 1 || ftth != 0 {
		t.Errorf("active = %d/%d, want 1/0", adsl, ftth)
	}
	oa, of := agg.ObservedSubs()
	if oa != 3 || of != 1 {
		t.Errorf("observed = %d/%d, want 3/1", oa, of)
	}
	pts := ActiveSeries([]*DayAgg{agg})
	if len(pts) != 1 || pts[0].Active != 1 || pts[0].Observed != 4 {
		t.Errorf("ActiveSeries = %+v", pts)
	}
	if pts[0].ActivePct != 25 {
		t.Errorf("ActivePct = %v", pts[0].ActivePct)
	}
}

func TestServiceOfP2PWithoutName(t *testing.T) {
	rec := mkRec(1, flowrec.TechADSL, "", 1000, 1000)
	rec.Web = flowrec.WebP2P
	if got := ServiceOf(classify.Default(), rec); got != P2PService {
		t.Errorf("ServiceOf P2P = %q", got)
	}
}

func TestServiceSeriesThresholds(t *testing.T) {
	a := NewAggregator(testDay, nil)
	// Sub 1 visits Netflix heavily; sub 2 touches a Netflix beacon only.
	feed(a, mkRec(1, flowrec.TechFTTH, "occ-0.nflxvideo.net", 100<<20, 5<<20), 12)
	feed(a, mkRec(2, flowrec.TechFTTH, "netflix.com", 1<<10, 512), 3)
	feed(a, mkRec(2, flowrec.TechFTTH, "other.example", 30<<20, 2<<20), 12)
	series := ServiceSeries([]*DayAgg{a.Result()}, "Netflix")
	if len(series) != 1 {
		t.Fatal("missing day")
	}
	p := series[0]
	// 2 active FTTH subs; only one passes the Netflix visit threshold.
	if p.PopPct[1] != 50 {
		t.Errorf("PopPct = %v, want 50", p.PopPct[1])
	}
	wantVol := float64(12 * (100<<20 + 5<<20))
	if p.VolPerUser[1] != wantVol {
		t.Errorf("VolPerUser = %v, want %v", p.VolPerUser[1], wantVol)
	}
}

func TestServiceByteShare(t *testing.T) {
	a := NewAggregator(testDay, nil)
	feed(a, mkRec(1, flowrec.TechADSL, "r1.googlevideo.com", 75<<20, 1<<20), 12)
	feed(a, mkRec(2, flowrec.TechADSL, "unclassified.example", 25<<20, 1<<20), 12)
	share := ServiceByteShare([]*DayAgg{a.Result()}, "YouTube")
	if len(share) != 1 || share[0].SharePct != 75 {
		t.Errorf("share = %+v, want 75%%", share)
	}
}

func TestMonthlySeriesGrouping(t *testing.T) {
	var aggs []*DayAgg
	for _, day := range []time.Time{
		time.Date(2014, 4, 2, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 4, 20, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 5, 3, 0, 0, 0, 0, time.UTC),
	} {
		a := NewAggregator(day, nil)
		rec := mkRec(1, flowrec.TechADSL, "x.example", 100<<20, 10<<20)
		rec.Start = day.Add(10 * time.Hour)
		feed(a, rec, 12)
		aggs = append(aggs, a.Result())
	}
	ms := MonthlySeries(aggs)
	if len(ms) != 2 {
		t.Fatalf("months = %d, want 2", len(ms))
	}
	if ms[0].Days != 2 || ms[1].Days != 1 {
		t.Errorf("days per month = %d,%d", ms[0].Days, ms[1].Days)
	}
	want := float64(12 * 100 << 20)
	if ms[0].Mean[0][Down] != want {
		t.Errorf("April mean = %v, want %v", ms[0].Mean[0][Down], want)
	}
	if ms[0].Mean[0][Up] != float64(12*10<<20) {
		t.Errorf("April upload mean = %v", ms[0].Mean[0][Up])
	}
}

func TestHourlyRatio(t *testing.T) {
	mk := func(day time.Time, hour int, bytes uint64) *DayAgg {
		a := NewAggregator(day, nil)
		rec := mkRec(1, flowrec.TechADSL, "x.example", bytes, 1000)
		rec.Start = day.Add(time.Duration(hour) * time.Hour)
		a.Add(rec)
		return a.Result()
	}
	d14 := time.Date(2014, 4, 2, 0, 0, 0, 0, time.UTC)
	d17 := time.Date(2017, 4, 2, 0, 0, 0, 0, time.UTC)
	den := []*DayAgg{mk(d14, 10, 50<<20)}
	num := []*DayAgg{mk(d17, 10, 150<<20)}
	curve := HourlyRatio(num, den, flowrec.TechADSL, 0)
	if len(curve) != TimeBinCount {
		t.Fatalf("curve length = %d", len(curve))
	}
	bin := 10 * 6
	if curve[bin].Y != 3 {
		t.Errorf("ratio at 10:00 = %v, want 3", curve[bin].Y)
	}
	if curve[0].Y != 0 {
		t.Errorf("empty bin ratio = %v, want 0", curve[0].Y)
	}
	smoothed := HourlyRatio(num, den, flowrec.TechADSL, 100)
	if len(smoothed) != 100 {
		t.Errorf("smoothed length = %d", len(smoothed))
	}
}

func TestProtocolShares(t *testing.T) {
	a := NewAggregator(testDay, nil)
	http := mkRec(1, flowrec.TechADSL, "x.example", 60<<20, 0)
	http.Web = flowrec.WebHTTP
	a.Add(http)
	tls := mkRec(1, flowrec.TechADSL, "y.example", 40<<20, 0)
	tls.Web = flowrec.WebTLS
	a.Add(tls)
	p2p := mkRec(1, flowrec.TechADSL, "", 500<<20, 0)
	p2p.Web = flowrec.WebP2P
	a.Add(p2p) // must NOT count toward web shares
	shares := ProtocolShares([]*DayAgg{a.Result()})
	if len(shares) != 1 {
		t.Fatal("missing month")
	}
	s := shares[0].SharePct
	if s[flowrec.WebHTTP] != 60 || s[flowrec.WebTLS] != 40 {
		t.Errorf("shares = %v", s)
	}
}

func TestRTTDist(t *testing.T) {
	a := NewAggregator(testDay, nil)
	rec := mkRec(1, flowrec.TechADSL, "scontent.xx.fbcdn.net", 1<<20, 1<<10)
	rec.RTTMin = 3 * time.Millisecond
	rec.RTTSamples = 5
	a.Add(rec)
	rec2 := mkRec(1, flowrec.TechADSL, "scontent.xx.fbcdn.net", 1<<20, 1<<10)
	rec2.RTTMin = 110 * time.Millisecond
	rec2.RTTSamples = 2
	a.Add(rec2)
	noRTT := mkRec(1, flowrec.TechADSL, "scontent.xx.fbcdn.net", 1<<20, 1<<10)
	a.Add(noRTT) // zero samples: excluded
	dist := RTTDist([]*DayAgg{a.Result()}, "Facebook")
	if dist.N() != 2 {
		t.Fatalf("samples = %d, want 2", dist.N())
	}
	if got := dist.P(10); got != 0.5 {
		t.Errorf("P(10ms) = %v, want 0.5", got)
	}
}

func TestServerFootprintSharedVsDedicated(t *testing.T) {
	a := NewAggregator(testDay, nil)
	shared := wire.AddrFrom(23, 62, 1, 1)
	fb := mkRec(1, flowrec.TechADSL, "fbstatic-a.akamaihd.net", 1<<20, 1<<10)
	fb.Server = shared
	a.Add(fb)
	other := mkRec(2, flowrec.TechADSL, "cdn.unrelated.example", 1<<20, 1<<10)
	other.Server = shared // same address serves something else
	a.Add(other)
	dedicated := mkRec(1, flowrec.TechADSL, "scontent.xx.fbcdn.net", 1<<20, 1<<10)
	dedicated.Server = wire.AddrFrom(31, 13, 64, 7)
	a.Add(dedicated)

	fp := ServerFootprint([]*DayAgg{a.Result()}, "Facebook")
	if len(fp) != 1 {
		t.Fatal("missing day")
	}
	if fp[0].Shared != 1 || fp[0].Dedicated != 1 {
		t.Errorf("footprint = %+v, want 1 shared + 1 dedicated", fp[0])
	}
}

func TestASNBreakdown(t *testing.T) {
	a := NewAggregator(testDay, nil)
	fb := mkRec(1, flowrec.TechADSL, "scontent.xx.fbcdn.net", 1<<20, 1<<10)
	fb.Server = wire.AddrFrom(31, 13, 64, 7)
	a.Add(fb)
	fb2 := mkRec(1, flowrec.TechADSL, "fbstatic-a.akamaihd.net", 1<<20, 1<<10)
	fb2.Server = wire.AddrFrom(23, 62, 1, 1)
	a.Add(fb2)

	var table asn.Table
	p1, _ := asn.ParsePrefix("31.13.64.0/18")
	p2, _ := asn.ParsePrefix("23.62.0.0/16")
	table.Insert(p1, asn.ASFacebook)
	table.Insert(p2, asn.ASAkamai)
	var ribs asn.RIBSet
	ribs.Add(time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC), &table)

	pts := ASNBreakdown([]*DayAgg{a.Result()}, "Facebook", &ribs)
	if len(pts) != 1 {
		t.Fatal("missing day")
	}
	if pts[0].ByOrg[asn.OrgFacebook] != 1 || pts[0].ByOrg[asn.OrgAkamai] != 1 {
		t.Errorf("breakdown = %v", pts[0].ByOrg)
	}
}

func TestDomainShares(t *testing.T) {
	a := NewAggregator(testDay, nil)
	feed(a, mkRec(1, flowrec.TechADSL, "r1---sn.googlevideo.com", 80<<20, 1<<10), 1)
	feed(a, mkRec(1, flowrec.TechADSL, "www.youtube.com", 20<<20, 1<<10), 1)
	shares := DomainShares([]*DayAgg{a.Result()}, "YouTube")
	if len(shares) != 1 {
		t.Fatal("missing month")
	}
	s := shares[0].SharePct
	if s["googlevideo.com"] != 80 || s["youtube.com"] != 20 {
		t.Errorf("domain shares = %v", s)
	}
}

func TestSecondLevelDomain(t *testing.T) {
	cases := map[string]string{
		"scontent.xx.fbcdn.net":   "fbcdn.net",
		"fbcdn.net":               "fbcdn.net",
		"localhost":               "localhost",
		"fbstatic-a.akamaihd.net": "akamaihd.net",
		"WWW.YouTube.COM.":        "youtube.com",
	}
	for in, want := range cases {
		if got := SecondLevelDomain(in); got != want {
			t.Errorf("SecondLevelDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDailyVolumeDist(t *testing.T) {
	a := NewAggregator(testDay, nil)
	feed(a, mkRec(1, flowrec.TechADSL, "x.example", 10<<20, 1<<20), 12)
	feed(a, mkRec(2, flowrec.TechADSL, "x.example", 50<<20, 1<<20), 12)
	feed(a, mkRec(3, flowrec.TechFTTH, "x.example", 90<<20, 1<<20), 12)
	dist := DailyVolumeDist([]*DayAgg{a.Result()}, flowrec.TechADSL, Down)
	if dist.N() != 2 {
		t.Fatalf("samples = %d, want 2 (ADSL only)", dist.N())
	}
	// Per-sub daily totals: 12×10 MB = 120 MB and 12×50 MB = 600 MB.
	if got := dist.CCDF(float64(200 << 20)); got != 0.5 {
		t.Errorf("CCDF(200MB) = %v, want 0.5", got)
	}
	up := DailyVolumeDist([]*DayAgg{a.Result()}, flowrec.TechADSL, Up)
	if up.Median() != float64(12<<20) {
		t.Errorf("upload median = %v", up.Median())
	}
}

// fakeSource serves canned records and outages.
func fakeSource(data map[time.Time][]*flowrec.Record) FuncSource {
	return func(day time.Time, fn func(*flowrec.Record)) error {
		recs, ok := data[day]
		if !ok {
			return ErrNoData
		}
		for _, r := range recs {
			fn(r)
		}
		return nil
	}
}

func TestRunParallelAndOutages(t *testing.T) {
	d1 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	d2 := time.Date(2015, 1, 2, 0, 0, 0, 0, time.UTC)
	d3 := time.Date(2015, 1, 3, 0, 0, 0, 0, time.UTC)
	rec := mkRec(1, flowrec.TechADSL, "x.example", 1<<20, 1<<10)
	src := fakeSource(map[time.Time][]*flowrec.Record{
		d1: {rec}, d3: {rec, rec},
	})
	aggs, err := Run(src, []time.Time{d3, d2, d1}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("aggs = %d, want 2 (one outage)", len(aggs))
	}
	if !aggs[0].Day.Equal(d1) || !aggs[1].Day.Equal(d3) {
		t.Errorf("days out of order: %v, %v", aggs[0].Day, aggs[1].Day)
	}
	if aggs[1].Flows != 2 {
		t.Errorf("d3 flows = %d", aggs[1].Flows)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	src := FuncSource(func(time.Time, func(*flowrec.Record)) error {
		return errors.New("disk on fire")
	})
	_, err := Run(src, []time.Time{testDay}, nil, 2)
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestStoreSourceRoundTrip(t *testing.T) {
	store, err := flowrec.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.CreateDay(testDay)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRec(5, flowrec.TechFTTH, "occ-0.nflxvideo.net", 42<<20, 2<<20)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	aggs, err := Run(StoreSource{Store: store}, []time.Time{testDay, testDay.AddDate(0, 0, 1)}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 {
		t.Fatalf("aggs = %d", len(aggs))
	}
	if aggs[0].ServiceBytes["Netflix"] != 42<<20 {
		t.Errorf("Netflix bytes = %d", aggs[0].ServiceBytes["Netflix"])
	}
}

func BenchmarkAggregatorAdd(b *testing.B) {
	a := NewAggregator(testDay, nil)
	rec := mkRec(1, flowrec.TechADSL, "r3---sn-hpa7kn7s.googlevideo.com", 40<<20, 1<<20)
	rec.RTTMin = 3 * time.Millisecond
	rec.RTTSamples = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.SubID = uint32(i % 300)
		a.Add(rec)
	}
}
