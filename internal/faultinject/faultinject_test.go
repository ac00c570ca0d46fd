package faultinject

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/retry"
)

func day(d int) time.Time { return time.Date(2016, 4, d, 0, 0, 0, 0, time.UTC) }

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"readday:p=0.01,transient",
		"readday:p=0.3,bitflip",
		"writeday:p=0.1,torn",
		"readday:p=0.05,transient;saveagg:p=0.2,transient",
		"outage:p=0.1",
		"emit:p=0.001",
		"readday:p=1,transient,fails=2",
		"loadagg:p=0.5,latency=2ms",
	}
	for _, spec := range cases {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.String() != spec {
			t.Errorf("Parse(%q).String() = %q", spec, p.String())
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); err != nil || p != nil {
		t.Errorf("empty spec: plan=%v err=%v, want nil,nil", p, err)
	}
	for _, spec := range []string{
		"frobday:p=0.1",     // unknown op
		"readday",           // missing params
		"readday:p=1.5",     // probability out of range
		"readday:p=x",       // non-numeric
		"readday:fails=-1",  // negative bound
		"readday:latency=x", // bad duration
		"readday:wibble",    // unknown flag
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestSeedParam(t *testing.T) {
	p, err := Parse("outage:p=0.5,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 {
		t.Fatalf("Seed = %d, want 99", p.Seed)
	}
}

// TestDeterministicDecisions: same plan, same days, same faults —
// chaos failures must replay.
func TestDeterministicDecisions(t *testing.T) {
	mk := func() *Plan {
		p, err := Parse("outage:p=0.3;emit:p=0.1")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	var outages int
	for d := 1; d <= 30; d++ {
		if a.DayOutage(day(d)) != b.DayOutage(day(d)) {
			t.Fatalf("day %d: outage decision differs between identical plans", d)
		}
		if a.DayOutage(day(d)) {
			outages++
		}
		for idx := uint64(0); idx < 50; idx++ {
			if a.DropRecord(day(d), idx) != b.DropRecord(day(d), idx) {
				t.Fatalf("day %d idx %d: drop decision differs", d, idx)
			}
		}
	}
	if outages == 0 || outages == 30 {
		t.Errorf("p=0.3 over 30 days hit %d outages; the roll looks degenerate", outages)
	}

	// A different seed must make different picks somewhere.
	c, err := Parse("outage:p=0.3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for d := 1; d <= 30; d++ {
		if a.DayOutage(day(d)) != c.DayOutage(day(d)) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed=1 and seed=7 selected identical outage days over a month")
	}
}

// TestTransientRerolls: a transient rule rolls per attempt, so with
// p=0.5 some attempts fail and some succeed for the same day.
func TestTransientRerolls(t *testing.T) {
	p, err := Parse("readday:p=0.5,transient")
	if err != nil {
		t.Fatal(err)
	}
	var hit, miss bool
	for attempt := 1; attempt <= 64; attempt++ {
		if p.fault(OpReadDay, day(1), attempt) != nil {
			hit = true
		} else {
			miss = true
		}
	}
	if !hit || !miss {
		t.Fatalf("64 attempts at p=0.5: hit=%v miss=%v, want both", hit, miss)
	}
}

// TestFailsClears: fails=2 fails exactly the first two attempts.
func TestFailsClears(t *testing.T) {
	p, err := Parse("readday:p=1,fails=2,transient")
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 4; attempt++ {
		f := p.fault(OpReadDay, day(1), attempt)
		if attempt <= 2 && f == nil {
			t.Fatalf("attempt %d: want fault", attempt)
		}
		if attempt > 2 && f != nil {
			t.Fatalf("attempt %d: want success, got %v", attempt, f)
		}
	}
}

func TestFaultErrorContract(t *testing.T) {
	p, _ := Parse("readday:p=1,transient")
	f := p.fault(OpReadDay, day(1), 1)
	if f == nil {
		t.Fatal("p=1 did not fire")
	}
	if !retry.Transient(f) {
		t.Error("transient fault not recognised by retry.Transient")
	}
	if errors.Is(f, flowrec.ErrCorrupt) {
		t.Error("plain transient fault should not read as corruption")
	}

	p2, _ := Parse("readday:p=1,bitflip")
	f2 := p2.fault(OpReadDay, day(1), 1)
	if f2 == nil {
		t.Fatal("bitflip p=1 did not fire")
	}
	if !errors.Is(f2, flowrec.ErrCorrupt) {
		t.Error("bitflip fault must wrap flowrec.ErrCorrupt")
	}
	if retry.Transient(f2) {
		t.Error("bitflip fault must not be transient")
	}
}

// --- the Storage wrapper over an in-memory fake -----------------------------

type memStorage struct {
	days     map[time.Time][]*flowrec.Record
	aggs     map[time.Time]*analytics.DayAgg
	quarant  []time.Time
	writeErr error
	gen      uint64
	appends  int
}

func newMemStorage() *memStorage {
	return &memStorage{
		days: make(map[time.Time][]*flowrec.Record),
		aggs: make(map[time.Time]*analytics.DayAgg),
	}
}

func (m *memStorage) ReadDayCols(d time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	recs, ok := m.days[d]
	if !ok {
		return fmt.Errorf("%w: %s", flowrec.ErrNoDay, d.Format("2006-01-02"))
	}
	for _, r := range recs {
		if !sc.Pred.Match(r) {
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (m *memStorage) WriteDay(d time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	if m.writeErr != nil {
		return 0, m.writeErr
	}
	var recs []*flowrec.Record
	err := emit(func(r *flowrec.Record) error {
		c := *r
		recs = append(recs, &c)
		return nil
	})
	// Like a real truncating rewrite: a failed write leaves the partial
	// day behind, a retry starts over.
	m.days[d] = recs
	if err != nil {
		return uint64(len(recs)), err
	}
	return uint64(len(recs)), nil
}

func (m *memStorage) HasDay(d time.Time) bool { _, ok := m.days[d]; return ok }

func (m *memStorage) Days() ([]time.Time, error) {
	var out []time.Time
	for d := range m.days {
		out = append(out, d)
	}
	return out, nil
}

func (m *memStorage) QuarantineDay(d time.Time) error {
	delete(m.days, d)
	m.quarant = append(m.quarant, d)
	return nil
}

func (m *memStorage) LoadAgg(d time.Time) (*analytics.DayAgg, error) { return m.aggs[d], nil }

func (m *memStorage) SaveAgg(a *analytics.DayAgg) error { m.aggs[a.Day] = a; return nil }

func (m *memStorage) LoadPartials(time.Time) ([]*analytics.Partial, error) { return nil, nil }

func (m *memStorage) SavePartials(time.Time, []*analytics.Partial) error { return nil }

func (m *memStorage) AppendPartial(time.Time, *analytics.Partial) error { m.appends++; return nil }

func (m *memStorage) PartialsSize(time.Time) (int64, int64) { return 0, 0 }

func (m *memStorage) SweepTemps(time.Time) error { return nil }

func (m *memStorage) LoadRollup(analytics.Grain, time.Time) (*analytics.Rollup, error) {
	return nil, nil
}

func (m *memStorage) SaveRollup(*analytics.Rollup) error { return nil }

func (m *memStorage) InvalidateRollups(time.Time) error { return nil }

func (m *memStorage) Generation() uint64 { return m.gen }

func (m *memStorage) BumpDays(...time.Time) uint64 { m.gen++; return m.gen }

func (m *memStorage) DayStamp(time.Time) uint64 { return m.gen }

func fillDay(m *memStorage, d time.Time, n int) {
	for i := 0; i < n; i++ {
		m.days[d] = append(m.days[d], &flowrec.Record{
			Start:     d.Add(time.Duration(i) * time.Second),
			Proto:     flowrec.ProtoTCP,
			BytesDown: uint64(1000 + i),
		})
	}
}

func TestWrapperReadFaultUpfront(t *testing.T) {
	m := newMemStorage()
	fillDay(m, day(1), 10)
	plan, _ := Parse("readday:p=1,transient")
	s := Wrap(m, plan)
	n := 0
	err := s.ReadDayCols(day(1), flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil })
	if err == nil || n != 0 {
		t.Fatalf("err=%v n=%d, want upfront failure with zero records", err, n)
	}
	if !retry.Transient(err) {
		t.Error("injected transient read error lost its transience")
	}
}

func TestWrapperCorruptionDeliversPrefix(t *testing.T) {
	m := newMemStorage()
	fillDay(m, day(1), 1000)
	plan, _ := Parse("readday:p=1,truncate")
	s := Wrap(m, plan)
	n := 0
	err := s.ReadDayCols(day(1), flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil })
	if !errors.Is(err, flowrec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt wrap", err)
	}
	if n == 0 || n >= 1000 {
		t.Errorf("delivered %d records, want a proper prefix (0 < n < 1000)", n)
	}
	// Short days fail on the "trailer" instead of succeeding silently.
	m2 := newMemStorage()
	fillDay(m2, day(2), 1)
	s2 := Wrap(m2, plan)
	if err := s2.ReadDayCols(day(2), flowrec.ColScan{}, func(*flowrec.Record) error { return nil }); !errors.Is(err, flowrec.ErrCorrupt) {
		t.Errorf("1-record day under truncation: err = %v, want ErrCorrupt", err)
	}
}

func TestWrapperTornWrite(t *testing.T) {
	m := newMemStorage()
	plan, _ := Parse("writeday:p=1,torn")
	s := Wrap(m, plan)
	_, err := s.WriteDay(day(1), func(write func(*flowrec.Record) error) error {
		for i := 0; i < 1000; i++ {
			if werr := write(&flowrec.Record{Start: day(1)}); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if got := len(m.days[day(1)]); got == 0 || got >= 1000 {
		t.Errorf("torn write left %d records, want a proper prefix", got)
	}
}

func TestWrapperLatencyOnly(t *testing.T) {
	m := newMemStorage()
	fillDay(m, day(1), 3)
	plan, _ := Parse("readday:p=1,latency=1ms")
	s := Wrap(m, plan)
	t0 := time.Now()
	n := 0
	if err := s.ReadDayCols(day(1), flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil }); err != nil {
		t.Fatalf("latency-only rule failed the read: %v", err)
	}
	if n != 3 {
		t.Errorf("read %d records, want 3", n)
	}
	if time.Since(t0) < time.Millisecond {
		t.Error("no latency was injected")
	}
}

func TestWrapperPassThrough(t *testing.T) {
	m := newMemStorage()
	fillDay(m, day(1), 5)
	s := Wrap(m, nil) // nil plan: everything passes through
	n := 0
	if err := s.ReadDayCols(day(1), flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil }); err != nil || n != 5 {
		t.Fatalf("nil plan: err=%v n=%d", err, n)
	}
	if wn, err := s.WriteDay(day(2), func(write func(*flowrec.Record) error) error {
		return write(&flowrec.Record{Start: day(2)})
	}); err != nil || wn != 1 {
		t.Fatalf("nil plan write: n=%d err=%v", wn, err)
	}
	if !s.HasDay(day(2)) {
		t.Error("HasDay lost the written day")
	}
	if err := s.QuarantineDay(day(1)); err != nil || len(m.quarant) != 1 {
		t.Fatalf("quarantine pass-through: err=%v moved=%d", err, len(m.quarant))
	}
}

// TestWrapperAppendPartialUnderSaveAgg: a delta checkpoint is the same
// failure domain as the base it extends — saveagg rules fail it before
// a byte reaches the inner storage, and once they clear it lands.
func TestWrapperAppendPartialUnderSaveAgg(t *testing.T) {
	m := newMemStorage()
	plan, err := Parse("saveagg:p=1,fails=2,transient")
	if err != nil {
		t.Fatal(err)
	}
	s := Wrap(m, plan)
	p := analytics.NewPartial(day(1))
	for i := 0; i < 2; i++ {
		if err := s.AppendPartial(day(1), p); err == nil || !retry.Transient(err) {
			t.Fatalf("attempt %d: want a transient fault, got %v", i+1, err)
		}
	}
	if m.appends != 0 {
		t.Fatalf("%d faulted appends reached the inner storage", m.appends)
	}
	if err := s.AppendPartial(day(1), p); err != nil || m.appends != 1 {
		t.Fatalf("cleared fault: err=%v appends=%d", err, m.appends)
	}
	if err := Wrap(m, nil).AppendPartial(day(1), p); err != nil || m.appends != 2 {
		t.Fatalf("nil plan: err=%v appends=%d", err, m.appends)
	}
}

// TestTransientReadConvergesUnderRetry: p=0.05 transient faults, read
// every day of a month under the shared retry policy — everything
// converges, which is the tentpole's acceptance scenario in miniature.
func TestTransientReadConvergesUnderRetry(t *testing.T) {
	m := newMemStorage()
	for d := 1; d <= 30; d++ {
		fillDay(m, day(d), 8)
	}
	plan, _ := Parse("readday:p=0.3,transient") // high p: retries certain
	s := Wrap(m, plan)
	pol := retry.Policy{Attempts: 6, Base: time.Microsecond, Max: time.Microsecond, Seed: 1,
		Sleep: func(time.Duration) {}}
	for d := 1; d <= 30; d++ {
		dd := day(d)
		err := pol.Do(nil, uint64(dd.Unix()), func() error {
			return s.ReadDayCols(dd, flowrec.ColScan{}, func(*flowrec.Record) error { return nil })
		})
		if err != nil {
			t.Fatalf("day %d did not converge under retry: %v", d, err)
		}
	}
}
