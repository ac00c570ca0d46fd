package faultinject

import (
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
)

// Storage is the pipeline's storage surface, redeclared here so the
// wrapper can sit in front of any implementation without importing
// core (core imports simnet, which reuses this package's Plan — the
// structural interface breaks the cycle). It is method-for-method
// identical to core.Storage, so a *FaultyStorage satisfies both.
type Storage interface {
	// ReadDayCols streams one day's flow records through a column
	// projection and predicate pushdown; fn errors abort the read (see
	// core.Storage).
	ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error
	// WriteDay materialises one day: emit receives a write callback
	// and the record count is returned.
	WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error)
	// HasDay reports whether a day's log exists.
	HasDay(day time.Time) bool
	// Days lists stored days ascending.
	Days() ([]time.Time, error)
	// QuarantineDay moves a damaged day out of the read path.
	QuarantineDay(day time.Time) error
	// LoadAgg and SaveAgg access the per-day aggregate cache.
	LoadAgg(day time.Time) (*analytics.DayAgg, error)
	SaveAgg(agg *analytics.DayAgg) error
	// LoadPartials and SavePartials access the partial side of the
	// aggregate cache (the ingester checkpoints open days as unmerged
	// partials; pipeline runs merge them back).
	// AppendPartial, PartialsSize and SweepTemps are the live
	// ingester's delta-checkpoint surface (see core.Storage).
	LoadPartials(day time.Time) ([]*analytics.Partial, error)
	SavePartials(day time.Time, parts []*analytics.Partial) error
	AppendPartial(day time.Time, p *analytics.Partial) error
	PartialsSize(day time.Time) (base, total int64)
	SweepTemps(day time.Time) error
	// LoadRollup, SaveRollup and InvalidateRollups access the
	// multi-resolution rollup tier (see core.Storage).
	LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error)
	SaveRollup(r *analytics.Rollup) error
	InvalidateRollups(day time.Time) error
	// Generation, BumpDays and DayStamp expose the lake generation and
	// the per-day stamps drawn from it (see core.Storage).
	Generation() uint64
	BumpDays(days ...time.Time) uint64
	DayStamp(day time.Time) uint64
}

// FaultyStorage injects the plan's faults in front of an inner
// Storage. A nil plan passes everything through untouched.
type FaultyStorage struct {
	inner Storage
	plan  *Plan
}

// Wrap builds a FaultyStorage over inner.
func Wrap(inner Storage, plan *Plan) *FaultyStorage {
	return &FaultyStorage{inner: inner, plan: plan}
}

// ReadDayCols injects read faults (the OpReadDay schedule):
// transient/permanent I/O errors fail the call upfront; bitflip and
// truncate deliver a deterministic prefix of the day's records and then
// fail like a damaged file (wrapping flowrec.ErrCorrupt).
func (s *FaultyStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	attempt := s.plan.next(OpReadDay, day)
	f := s.plan.fault(OpReadDay, day, attempt)
	if f == nil {
		return s.inner.ReadDayCols(day, sc, fn)
	}
	if !f.IsCorruption() {
		return f
	}
	// Corruption: the stream decodes up to the damage point, then the
	// decoder surfaces the fault — exactly how a flipped bit or a
	// truncated tail reads back.
	limit := s.plan.truncPoint(day)
	n := 0
	var ferr error = f
	err := s.inner.ReadDayCols(day, sc, func(r *flowrec.Record) error {
		if n >= limit {
			return ferr
		}
		n++
		return fn(r)
	})
	if err == nil {
		// Fewer records than the damage point: the fault lands on the
		// trailer instead.
		return f
	}
	return err
}

// WriteDay injects write faults: transient/permanent errors fail the
// call before any byte lands; torn writes cut the stream after a
// deterministic number of records, leaving a short day behind.
func (s *FaultyStorage) WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	attempt := s.plan.next(OpWriteDay, day)
	f := s.plan.fault(OpWriteDay, day, attempt)
	if f == nil {
		return s.inner.WriteDay(day, emit)
	}
	if f.Kind != "torn write" {
		return 0, f
	}
	limit := s.plan.truncPoint(day)
	return s.inner.WriteDay(day, func(write func(*flowrec.Record) error) error {
		n := 0
		return emit(func(r *flowrec.Record) error {
			if n >= limit {
				return f
			}
			n++
			return write(r)
		})
	})
}

// HasDay passes through.
func (s *FaultyStorage) HasDay(day time.Time) bool { return s.inner.HasDay(day) }

// Days passes through.
func (s *FaultyStorage) Days() ([]time.Time, error) { return s.inner.Days() }

// QuarantineDay passes through: quarantine is the recovery path and
// must stay reliable for the degradation story to hold.
func (s *FaultyStorage) QuarantineDay(day time.Time) error { return s.inner.QuarantineDay(day) }

// LoadAgg injects cache-load faults.
func (s *FaultyStorage) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	attempt := s.plan.next(OpLoadAgg, day)
	if f := s.plan.fault(OpLoadAgg, day, attempt); f != nil {
		return nil, f
	}
	return s.inner.LoadAgg(day)
}

// SaveAgg injects cache-save faults.
func (s *FaultyStorage) SaveAgg(agg *analytics.DayAgg) error {
	attempt := s.plan.next(OpSaveAgg, agg.Day)
	if f := s.plan.fault(OpSaveAgg, agg.Day, attempt); f != nil {
		return f
	}
	return s.inner.SaveAgg(agg)
}

// LoadPartials injects cache-load faults: the partial cache is the
// same failure domain as the final-aggregate cache, so loadagg rules
// cover both.
func (s *FaultyStorage) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	attempt := s.plan.next(OpLoadAgg, day)
	if f := s.plan.fault(OpLoadAgg, day, attempt); f != nil {
		return nil, f
	}
	return s.inner.LoadPartials(day)
}

// SavePartials injects cache-save faults, under the saveagg rules.
func (s *FaultyStorage) SavePartials(day time.Time, parts []*analytics.Partial) error {
	attempt := s.plan.next(OpSaveAgg, day)
	if f := s.plan.fault(OpSaveAgg, day, attempt); f != nil {
		return f
	}
	return s.inner.SavePartials(day, parts)
}

// AppendPartial injects cache-save faults under the saveagg rules, like
// the SavePartials it extends. The fault fails the call before a byte
// lands; a torn append is the crash suite's to stage.
func (s *FaultyStorage) AppendPartial(day time.Time, p *analytics.Partial) error {
	attempt := s.plan.next(OpSaveAgg, day)
	if f := s.plan.fault(OpSaveAgg, day, attempt); f != nil {
		return f
	}
	return s.inner.AppendPartial(day, p)
}

// PartialsSize passes through: it is a stat, and what it decides is
// only when to rewrite.
func (s *FaultyStorage) PartialsSize(day time.Time) (base, total int64) {
	return s.inner.PartialsSize(day)
}

// SweepTemps passes through: like InvalidateRollups, it is clean-up on
// the recovery path.
func (s *FaultyStorage) SweepTemps(day time.Time) error { return s.inner.SweepTemps(day) }

// LoadRollup injects cache-load faults keyed by the window start: a
// rollup file is the same failure domain as the aggregate cache.
func (s *FaultyStorage) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	attempt := s.plan.next(OpLoadAgg, start)
	if f := s.plan.fault(OpLoadAgg, start, attempt); f != nil {
		return nil, f
	}
	return s.inner.LoadRollup(g, start)
}

// SaveRollup injects cache-save faults under the saveagg rules.
func (s *FaultyStorage) SaveRollup(r *analytics.Rollup) error {
	attempt := s.plan.next(OpSaveAgg, r.Start)
	if f := s.plan.fault(OpSaveAgg, r.Start, attempt); f != nil {
		return f
	}
	return s.inner.SaveRollup(r)
}

// InvalidateRollups passes through: like QuarantineDay, invalidation
// is the recovery path — faulting it would turn every injected
// corruption into a permanent stale-rollup hazard.
func (s *FaultyStorage) InvalidateRollups(day time.Time) error {
	return s.inner.InvalidateRollups(day)
}

// Generation passes through: the counter and the stamps are
// bookkeeping, not lake I/O — faulting them would only decouple caches
// from the days they mirror.
func (s *FaultyStorage) Generation() uint64 { return s.inner.Generation() }

// BumpDays passes through, like Generation.
func (s *FaultyStorage) BumpDays(days ...time.Time) uint64 { return s.inner.BumpDays(days...) }

// DayStamp passes through, like Generation.
func (s *FaultyStorage) DayStamp(day time.Time) uint64 { return s.inner.DayStamp(day) }

// IsCorruption reports whether the fault damages data (bitflip or
// truncation) rather than failing the operation outright.
func (f *Fault) IsCorruption() bool {
	return f.Kind == "bitflip" || f.Kind == "truncate"
}
