package core

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/retry"
	"repro/internal/simnet"
)

func TestAggregateRetriesAfterError(t *testing.T) {
	p := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 1})
	// A source that fails its first call, then delegates to the world.
	fails := 1
	src := analytics.FuncSource(func(day time.Time, fn func(*flowrec.Record)) error {
		if fails > 0 {
			fails--
			return errors.New("transient storage failure")
		}
		p.World.EmitDay(day, fn)
		return nil
	})
	day := time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC)

	// Drive Aggregate's internals through a source shim: swap the
	// pipeline's source by using the store-free path but injecting the
	// failure through analytics.Run directly.
	_, err := analytics.Run(src, []time.Time{day}, p.Cls, 1)
	if err == nil {
		t.Fatal("flaky source did not fail")
	}

	// The pipeline-level behaviour: an error must not poison the day
	// cache. Simulate by reserving through a failed call.
	failing := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 8, FTTH: 4}, Workers: 1,
		Store: brokenStore(t)})
	if _, err := failing.Aggregate(context.Background(), []time.Time{day}); err == nil {
		t.Fatal("broken store did not error")
	}
	// Retrying after the failure yields the day (from a fixed store —
	// here we just switch to the simulation source via a new pipeline
	// sharing the same cache is not possible, so assert the cache was
	// cleaned: a second failing call still reports the error rather
	// than silently returning zero aggregates).
	if _, err := failing.Aggregate(context.Background(), []time.Time{day}); err == nil {
		t.Fatal("second call silently swallowed the failure (poisoned cache)")
	}
}

// brokenStore returns a store whose day file exists but is corrupt, so
// reads fail with a real error (not ErrNoDay).
func brokenStore(t *testing.T) *flowrec.Store {
	t.Helper()
	dir := t.TempDir()
	s, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC)
	w, err := s.CreateDay(day)
	if err != nil {
		t.Fatal(err)
	}
	rec := flowrec.Record{Start: day.Add(time.Hour), Proto: flowrec.ProtoTCP}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate the gzip mid-stream.
	path := dir + "/2016/04/flows-20160409.efl.gz"
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data[:len(data)-4]); err != nil {
		t.Fatal(err)
	}
	return s
}

func readFile(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// cancelStorage is an in-memory Storage whose reads can be switched
// between failing (transiently) and succeeding — the shim that lets
// the tests drive Aggregate's error and cancellation paths exactly.
type cancelStorage struct {
	mu    sync.Mutex
	fail  bool
	reads int
	gen   uint64
}

func (f *cancelStorage) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *cancelStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	f.mu.Lock()
	fail := f.fail
	f.reads++
	f.mu.Unlock()
	if fail {
		return retry.MarkTransient(errors.New("injected transient read error"))
	}
	for i := 0; i < 50; i++ {
		r := flowrec.Record{
			Start: day.Add(time.Duration(i) * time.Minute),
			Proto: flowrec.ProtoTCP, Tech: flowrec.TechADSL,
			SubID: uint32(i % 5), BytesDown: 20 << 10, BytesUp: 10 << 10,
		}
		if !sc.Pred.Match(&r) {
			continue
		}
		if err := fn(&r); err != nil {
			return err
		}
	}
	return nil
}

func (f *cancelStorage) WriteDay(time.Time, func(write func(*flowrec.Record) error) error) (uint64, error) {
	return 0, errors.New("not writable")
}
func (f *cancelStorage) HasDay(time.Time) bool                                { return true }
func (f *cancelStorage) Days() ([]time.Time, error)                           { return nil, nil }
func (f *cancelStorage) QuarantineDay(time.Time) error                        { return nil }
func (f *cancelStorage) LoadAgg(time.Time) (*analytics.DayAgg, error)         { return nil, nil }
func (f *cancelStorage) SaveAgg(*analytics.DayAgg) error                      { return nil }
func (f *cancelStorage) LoadPartials(time.Time) ([]*analytics.Partial, error) { return nil, nil }
func (f *cancelStorage) SavePartials(time.Time, []*analytics.Partial) error   { return nil }
func (f *cancelStorage) AppendPartial(time.Time, *analytics.Partial) error    { return nil }
func (f *cancelStorage) PartialsSize(time.Time) (int64, int64)                { return 0, 0 }
func (f *cancelStorage) SweepTemps(time.Time) error                           { return nil }
func (f *cancelStorage) LoadRollup(analytics.Grain, time.Time) (*analytics.Rollup, error) {
	return nil, nil
}
func (f *cancelStorage) SaveRollup(*analytics.Rollup) error { return nil }
func (f *cancelStorage) InvalidateRollups(time.Time) error  { return nil }
func (f *cancelStorage) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}
func (f *cancelStorage) BumpDays(...time.Time) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gen++
	return f.gen
}

// DayStamp is the generation for every day: a bump of any day moves
// them all, which satisfies the strict-increase contract bluntly.
func (f *cancelStorage) DayStamp(time.Time) uint64 { return f.Generation() }

// TestAggregatePreCancelled: a context cancelled before the call must
// fail fast without reserving (and thus without poisoning) any day.
func TestAggregatePreCancelled(t *testing.T) {
	st := &cancelStorage{}
	p := New(Config{Seed: 1, Workers: 1, Storage: st})
	day := time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Aggregate(ctx, []time.Time{day}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.reads != 0 {
		t.Errorf("cancelled call touched storage %d times", st.reads)
	}
	aggs, err := p.Aggregate(context.Background(), []time.Time{day})
	if err != nil || len(aggs) != 1 {
		t.Fatalf("after cancel: aggs=%d err=%v, want the day to compute", len(aggs), err)
	}
}

// TestAggregateCancelReleasesReservations: cancelling mid-retry must
// release the cancelled caller's day reservations, so a later call
// recomputes those days instead of inheriting nil aggregates. This is
// the regression test for the poisoned-cache failure mode.
func TestAggregateCancelReleasesReservations(t *testing.T) {
	st := &cancelStorage{fail: true}
	ctx, cancel := context.WithCancel(context.Background())
	p := New(Config{Seed: 1, Workers: 1, Storage: st,
		// The Sleep hook fires on the first backoff wait: cancel there,
		// deterministically mid-aggregation.
		Retry: retry.Policy{Attempts: 3, Base: time.Millisecond, Seed: 1,
			Sleep: func(time.Duration) { cancel() }}})
	days := []time.Time{
		time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 4, 10, 0, 0, 0, 0, time.UTC),
	}

	if _, err := p.Aggregate(ctx, days); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The storage heals; a fresh call must recompute both days. A
	// leaked reservation would surface as a silent 0- or 1-day result.
	st.setFail(false)
	aggs, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatalf("post-cancel Aggregate: %v", err)
	}
	if len(aggs) != 2 {
		t.Fatalf("post-cancel Aggregate returned %d days, want 2 (reservations not released)", len(aggs))
	}
	for i, a := range aggs {
		if a.Flows == 0 {
			t.Errorf("day %d: empty aggregate after recompute", i)
		}
	}
}

// TestAggregateCancelDuringBackoff: a cancel arriving while the retry
// helper sleeps must abort promptly, not after the full backoff.
func TestAggregateCancelDuringBackoff(t *testing.T) {
	st := &cancelStorage{fail: true}
	ctx, cancel := context.WithCancel(context.Background())
	p := New(Config{Seed: 1, Workers: 1, Storage: st,
		Retry: retry.Policy{Attempts: 4, Base: time.Hour, Max: time.Hour, Seed: 1}})
	day := time.Date(2016, 4, 9, 0, 0, 0, 0, time.UTC)

	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := p.Aggregate(ctx, []time.Time{day})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to take effect; the backoff wait ignored ctx", elapsed)
	}
}
