package faultinject_test

// The fault plan seen through the storage wrapper it drives
// (core.WithFaults): an external test package, because core imports
// faultinject.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/retry"
)

func day(d int) time.Time { return time.Date(2016, 4, d, 0, 0, 0, 0, time.UTC) }

// memStorage is an in-memory lake under the wrapper. It states only
// what the tests below exercise; any other Storage call hits the nil
// embedded interface and panics.
type memStorage struct {
	core.Storage
	days    map[time.Time][]*flowrec.Record
	quarant []time.Time
	appends int
}

func newMemStorage() *memStorage {
	return &memStorage{days: make(map[time.Time][]*flowrec.Record)}
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
	var recs []*flowrec.Record
	err := emit(func(r *flowrec.Record) error {
		c := *r
		recs = append(recs, &c)
		return nil
	})
	// Like a real truncating rewrite: a failed write leaves the partial
	// day behind, a retry starts over.
	m.days[d] = recs
	return uint64(len(recs)), err
}

func (m *memStorage) HasDay(d time.Time) bool { _, ok := m.days[d]; return ok }

func (m *memStorage) QuarantineDay(d time.Time) error {
	delete(m.days, d)
	m.quarant = append(m.quarant, d)
	return nil
}

func (m *memStorage) AppendPartial(time.Time, *analytics.Partial) error { m.appends++; return nil }

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
	plan, _ := faultinject.Parse("readday:p=1,transient")
	s := core.WithFaults(m, plan)
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
	plan, _ := faultinject.Parse("readday:p=1,truncate")
	s := core.WithFaults(m, plan)
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
	s2 := core.WithFaults(m2, plan)
	if err := s2.ReadDayCols(day(2), flowrec.ColScan{}, func(*flowrec.Record) error { return nil }); !errors.Is(err, flowrec.ErrCorrupt) {
		t.Errorf("1-record day under truncation: err = %v, want ErrCorrupt", err)
	}
}

func TestWrapperTornWrite(t *testing.T) {
	m := newMemStorage()
	plan, _ := faultinject.Parse("writeday:p=1,torn")
	s := core.WithFaults(m, plan)
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
	plan, _ := faultinject.Parse("readday:p=1,latency=1ms")
	s := core.WithFaults(m, plan)
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

// TestWrapperPassThrough: a nil plan adds nothing, and a plan with no
// storage rules wraps but strikes nothing; either way reads, writes and
// the embedded pass-through methods reach the inner storage.
func TestWrapperPassThrough(t *testing.T) {
	quiet, err := faultinject.Parse("outage:p=1") // emission-side only
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faultinject.Plan{nil, quiet} {
		m := newMemStorage()
		fillDay(m, day(1), 5)
		s := core.WithFaults(m, plan)
		if (plan == nil) != (s == core.Storage(m)) {
			t.Fatalf("plan %q: WithFaults wrapped=%v", plan, s != core.Storage(m))
		}
		n := 0
		if err := s.ReadDayCols(day(1), flowrec.ColScan{}, func(*flowrec.Record) error { n++; return nil }); err != nil || n != 5 {
			t.Fatalf("plan %q: err=%v n=%d", plan, err, n)
		}
		if wn, err := s.WriteDay(day(2), func(write func(*flowrec.Record) error) error {
			return write(&flowrec.Record{Start: day(2)})
		}); err != nil || wn != 1 {
			t.Fatalf("plan %q write: n=%d err=%v", plan, wn, err)
		}
		if !s.HasDay(day(2)) {
			t.Errorf("plan %q: HasDay lost the written day", plan)
		}
		if err := s.QuarantineDay(day(1)); err != nil || len(m.quarant) != 1 {
			t.Fatalf("plan %q: quarantine pass-through: err=%v moved=%d", plan, err, len(m.quarant))
		}
	}
}

// TestWrapperAppendPartialUnderSaveAgg: a delta checkpoint is the same
// failure domain as the base it extends — saveagg rules fail it before
// a byte reaches the inner storage, and once they clear it lands.
func TestWrapperAppendPartialUnderSaveAgg(t *testing.T) {
	m := newMemStorage()
	plan, err := faultinject.Parse("saveagg:p=1,fails=2,transient")
	if err != nil {
		t.Fatal(err)
	}
	s := core.WithFaults(m, plan)
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
	if err := core.WithFaults(m, nil).AppendPartial(day(1), p); err != nil || m.appends != 2 {
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
	plan, _ := faultinject.Parse("readday:p=0.3,transient") // high p: retries certain
	s := core.WithFaults(m, plan)
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
