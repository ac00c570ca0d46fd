package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/framefile"
)

// Storage is the single surface the pipeline reads and writes through:
// the flow lake (day logs) and the derived caches behind one
// interface, so a fault injector (WithFaults) — or any alternative
// backend — can sit in front of everything at once. It is the only
// declaration of the surface: wrappers and test doubles embed it and
// state just the methods they change; ingest declares the subset its
// daemon writes through.
type Storage interface {
	// ReadDayCols streams one day's flow records through a column
	// projection and predicate pushdown: a v3 day decodes only the
	// requested columns and skips blocks the predicate rules out; a v1
	// day delivers full records filtered by the predicate. The zero
	// ColScan reads everything. fn errors abort the read and are
	// returned; a missing day is flowrec.ErrNoDay, a damaged one wraps
	// flowrec.ErrCorrupt.
	ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error
	// WriteDay (re)creates one day's log: emit receives the write
	// callback and runs to completion before the log is sealed. The
	// record count is returned. Sealing is atomic: a failed WriteDay
	// (torn write, emit error, crash) leaves nothing at the day path,
	// so readers only ever see complete days and retries are safe.
	WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error)
	// HasDay reports whether a day's log exists.
	HasDay(day time.Time) bool
	// Days lists stored days ascending, quarantined days excluded.
	Days() ([]time.Time, error)
	// QuarantineDay moves a damaged day's log out of the read path so
	// later reads see an outage instead of the same corruption, and
	// drops the persisted rollups whose windows cover the day, so no
	// rollup keeps serving a merge that folded it.
	QuarantineDay(day time.Time) error
	// LoadAgg returns a cached per-day aggregate, (nil, nil) on a
	// cache miss (including "no cache configured").
	LoadAgg(day time.Time) (*analytics.DayAgg, error)
	// SaveAgg persists one day's aggregate; a no-op without a cache.
	SaveAgg(agg *analytics.DayAgg) error
	// LoadPartials returns a day's cached partials, (nil, nil) on a
	// miss. A run merges these instead of re-reading the day's records
	// (the ingester's hot days have no records to read yet).
	LoadPartials(day time.Time) ([]*analytics.Partial, error)
	// SavePartials persists a day's partials, replacing whatever
	// the day's file held; a no-op without a cache.
	SavePartials(day time.Time, parts []*analytics.Partial) error
	// AppendPartial adds p behind the partials SavePartials last wrote
	// for day, so that LoadPartials returns it too — the live ingester's
	// checkpoint, which costs the records folded since the previous one
	// instead of the whole open day. It fails when the day has no file
	// to append to. A no-op without a cache.
	AppendPartial(day time.Time, p *analytics.Partial) error
	// PartialsSize returns the stored bytes of what SavePartials last
	// wrote for day and of everything stored for it since, appends
	// included; both zero on a miss. A writer compares the two to decide
	// when appending has stopped paying and it should save afresh.
	PartialsSize(day time.Time) (base, total int64)
	// SweepTemps removes the leftovers of day's aggregate and partial
	// saves that died before they published. Only the day's one writer
	// may call it: it would take a concurrent save's file from under it.
	SweepTemps(day time.Time) error
	// LoadRollup returns the persisted rollup for one window, (nil,
	// nil) on a miss (including "no rollup tier configured"). Like the
	// aggregate cache, anything short of a healthy, version-matched
	// file reads as a miss.
	LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error)
	// SaveRollup persists one window's rollup; a no-op without a
	// rollup tier.
	SaveRollup(r *analytics.Rollup) error
	// Generation returns the lake generation: a monotonic counter that
	// advances on every mutation (WriteDay, quarantine, compaction,
	// live-ingest checkpoints). It is the clock day stamps are drawn
	// from and what healthz reports; no cache keys on it — a cache keys
	// on the stamps of the days it read.
	Generation() uint64
	// BumpDays advances the generation, records the new value as each
	// listed day's stamp and returns it. A day's stamp strictly
	// increases on every bump of that day. Mutation paths inside Storage
	// call it themselves; external mutators (compaction, ingest
	// checkpoints and recovery) name the days they changed once the
	// change has landed.
	BumpDays(days ...time.Time) uint64
	// DayStamp returns day's stamp: anything derived from the day is
	// valid exactly as long as its stamp is unchanged, and every bump of
	// the day changes it. A stamp that cannot be read whole reads as a
	// value no earlier or later read returns, so damage is always a
	// miss.
	DayStamp(day time.Time) uint64
}

// faultyStorage puts a fault plan in front of a Storage. It faults the
// lake and cache I/O and passes everything else through the embedded
// Storage: quarantine (which also drops the covering rollups) and
// SweepTemps are the recovery path and must stay reliable for the
// degradation story to hold — faulting them would turn every injected
// corruption into a permanent stale-rollup hazard; the generation and
// the day stamps are bookkeeping, not lake I/O, and faulting them
// would only decouple caches from the days they mirror; HasDay, Days
// and PartialsSize are stats.
type faultyStorage struct {
	Storage
	plan *faultinject.Plan
}

// WithFaults injects plan's faults in front of s. A nil plan returns s
// itself.
func WithFaults(s Storage, plan *faultinject.Plan) Storage {
	if plan == nil {
		return s
	}
	return &faultyStorage{Storage: s, plan: plan}
}

// ReadDayCols injects read faults (the OpReadDay schedule):
// transient/permanent I/O errors fail the call upfront; bitflip and
// truncate deliver a deterministic prefix of the day's records and then
// fail like a damaged file (wrapping flowrec.ErrCorrupt).
func (s *faultyStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	f := s.plan.NextFault(faultinject.OpReadDay, day)
	if f == nil {
		return s.Storage.ReadDayCols(day, sc, fn)
	}
	if !f.IsCorruption() {
		return f
	}
	// Corruption: the stream decodes up to the damage point, then the
	// decoder surfaces the fault — exactly how a flipped bit or a
	// truncated tail reads back.
	limit := s.plan.TruncPoint(day)
	n := 0
	err := s.Storage.ReadDayCols(day, sc, func(r *flowrec.Record) error {
		if n >= limit {
			return f
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
func (s *faultyStorage) WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	f := s.plan.NextFault(faultinject.OpWriteDay, day)
	if f == nil {
		return s.Storage.WriteDay(day, emit)
	}
	if f.Kind != "torn write" {
		return 0, f
	}
	limit := s.plan.TruncPoint(day)
	return s.Storage.WriteDay(day, func(write func(*flowrec.Record) error) error {
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

// LoadAgg injects cache-load faults. The derived caches — aggregates,
// partials, rollups — are one failure domain: every load faults under
// the loadagg rules and every save under the saveagg rules.
func (s *faultyStorage) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	if f := s.plan.NextFault(faultinject.OpLoadAgg, day); f != nil {
		return nil, f
	}
	return s.Storage.LoadAgg(day)
}

// SaveAgg injects cache-save faults.
func (s *faultyStorage) SaveAgg(agg *analytics.DayAgg) error {
	if f := s.plan.NextFault(faultinject.OpSaveAgg, agg.Day); f != nil {
		return f
	}
	return s.Storage.SaveAgg(agg)
}

// LoadPartials injects cache-load faults.
func (s *faultyStorage) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	if f := s.plan.NextFault(faultinject.OpLoadAgg, day); f != nil {
		return nil, f
	}
	return s.Storage.LoadPartials(day)
}

// SavePartials injects cache-save faults.
func (s *faultyStorage) SavePartials(day time.Time, parts []*analytics.Partial) error {
	if f := s.plan.NextFault(faultinject.OpSaveAgg, day); f != nil {
		return f
	}
	return s.Storage.SavePartials(day, parts)
}

// AppendPartial injects cache-save faults, like the SavePartials it
// extends. The fault fails the call before a byte lands; a torn append
// is the crash suite's to stage.
func (s *faultyStorage) AppendPartial(day time.Time, p *analytics.Partial) error {
	if f := s.plan.NextFault(faultinject.OpSaveAgg, day); f != nil {
		return f
	}
	return s.Storage.AppendPartial(day, p)
}

// LoadRollup injects cache-load faults keyed by the window start.
func (s *faultyStorage) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	if f := s.plan.NextFault(faultinject.OpLoadAgg, start); f != nil {
		return nil, f
	}
	return s.Storage.LoadRollup(g, start)
}

// SaveRollup injects cache-save faults keyed by the window start.
func (s *faultyStorage) SaveRollup(r *analytics.Rollup) error {
	if f := s.plan.NextFault(faultinject.OpSaveAgg, r.Start); f != nil {
		return f
	}
	return s.Storage.SaveRollup(r)
}

// DiskStorage is the production Storage: a flowrec day-partitioned
// store plus an optional on-disk aggregate cache directory. Either
// half may be absent — a simulation-fed pipeline with an agg cache
// has no store, edgegen's output store has no agg cache.
type DiskStorage struct {
	store     *flowrec.Store
	aggDir    string
	rollupDir string

	// genMu serializes bumps; gen holds the highest generation this
	// process has observed. With an agg cache dir the counter and the
	// day stamps are persisted there (genPath, stampDir), which is what
	// lets a live edged writer and an edgeserve reader sharing the
	// directory agree on what changed across processes.
	genMu    sync.Mutex
	gen      atomic.Uint64
	genPath  string
	stampDir string
}

// NewDiskStorage wires a DiskStorage; store may be nil (no flow lake)
// and aggDir may be empty (no aggregate cache).
func NewDiskStorage(store *flowrec.Store, aggDir string) *DiskStorage {
	d := &DiskStorage{store: store, aggDir: aggDir}
	if aggDir != "" {
		d.genPath = filepath.Join(aggDir, "generation")
		d.stampDir = filepath.Join(aggDir, "stamps")
	}
	return d
}

// WithRollupDir enables the rollup tier beside the day lake: persisted
// week/month/year rollup files live in dir. Returns the receiver for
// chaining off NewDiskStorage.
func (d *DiskStorage) WithRollupDir(dir string) *DiskStorage {
	d.rollupDir = dir
	return d
}

// ReadDayCols implements Storage.
func (d *DiskStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	if d.store == nil {
		return fmt.Errorf("%w: %s", flowrec.ErrNoDay, day.UTC().Format("2006-01-02"))
	}
	return d.store.ReadDayCols(day, sc, fn)
}

// WriteDay implements Storage.
func (d *DiskStorage) WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	if d.store == nil {
		return 0, fmt.Errorf("core: storage has no flow store to write %s", day.UTC().Format("2006-01-02"))
	}
	w, err := d.store.CreateDay(day)
	if err != nil {
		return 0, err
	}
	werr := emit(w.Write)
	n := w.Count()
	if werr != nil {
		// A failed emit (torn write, cancelled context) must not seal:
		// Abort discards the temp file, so no partial day is ever
		// published at the day path.
		w.Abort()
		return n, werr
	}
	werr = w.Close()
	if werr == nil {
		// The day's bytes changed: every cached derivation of the old
		// bytes — the aggregate, the partials, the covering
		// rollups — must go, or a repaired day keeps serving stale
		// merges. Absent files are fine; anything else surfaces.
		werr = d.invalidateDerived(day)
		d.BumpDays(day)
	}
	return n, werr
}

// invalidateDerived drops the day's cached aggregate and partials —
// the whole framed file, base and deltas — with any temp
// siblings a killed save left, plus the rollups covering it.
func (d *DiskStorage) invalidateDerived(day time.Time) error {
	var firstErr error
	if d.aggDir != "" {
		for _, path := range []string{aggCachePath(d.aggDir, day), partialCachePath(d.aggDir, day)} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) && firstErr == nil {
				firstErr = err
			}
		}
		if err := sweepTemps(d.aggDir, day); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := d.invalidateRollups(day); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// HasDay implements Storage.
func (d *DiskStorage) HasDay(day time.Time) bool {
	return d.store != nil && d.store.HasDay(day)
}

// Days implements Storage.
func (d *DiskStorage) Days() ([]time.Time, error) {
	if d.store == nil {
		return nil, nil
	}
	return d.store.Days()
}

// QuarantineDay implements Storage. The covering rollups go even
// when the move fails: whatever state the day is left in, a window
// that folded it must recompute.
func (d *DiskStorage) QuarantineDay(day time.Time) error {
	if d.store == nil {
		return nil
	}
	err := d.store.QuarantineDay(day)
	if err == nil {
		d.BumpDays(day)
	}
	if rerr := d.invalidateRollups(day); err == nil {
		err = rerr
	}
	return err
}

// LoadAgg implements Storage. Damaged or version-mismatched cache
// files read as misses, exactly like the pre-interface loadAgg.
func (d *DiskStorage) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	if d.aggDir == "" {
		return nil, nil
	}
	return loadAgg(d.aggDir, day), nil
}

// SaveAgg implements Storage.
func (d *DiskStorage) SaveAgg(agg *analytics.DayAgg) error {
	if d.aggDir == "" {
		return nil
	}
	return saveAgg(d.aggDir, agg)
}

// LoadPartials implements Storage. Like LoadAgg, anything short of a
// healthy, version-matched file reads as a miss; a file whose tail is
// torn or damaged reads as the frames before the damage.
func (d *DiskStorage) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	if d.aggDir == "" {
		return nil, nil
	}
	return loadPartials(d.aggDir, day), nil
}

// SavePartials implements Storage.
func (d *DiskStorage) SavePartials(day time.Time, parts []*analytics.Partial) error {
	if d.aggDir == "" {
		return nil
	}
	return savePartials(d.aggDir, day, parts)
}

// AppendPartial implements Storage.
func (d *DiskStorage) AppendPartial(day time.Time, p *analytics.Partial) error {
	if d.aggDir == "" {
		return nil
	}
	return appendPartial(d.aggDir, day, p)
}

// PartialsSize implements Storage.
func (d *DiskStorage) PartialsSize(day time.Time) (base, total int64) {
	if d.aggDir == "" {
		return 0, 0
	}
	return framefile.Sizes(partialCachePath(d.aggDir, day))
}

// SweepTemps implements Storage.
func (d *DiskStorage) SweepTemps(day time.Time) error {
	if d.aggDir == "" {
		return nil
	}
	return sweepTemps(d.aggDir, day)
}

// LoadRollup implements Storage: same miss-on-damage model as LoadAgg.
func (d *DiskStorage) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	if d.rollupDir == "" {
		return nil, nil
	}
	return loadRollup(d.rollupDir, g, start), nil
}

// SaveRollup implements Storage.
func (d *DiskStorage) SaveRollup(r *analytics.Rollup) error {
	if d.rollupDir == "" {
		return nil
	}
	return saveRollup(d.rollupDir, r)
}

// Generation implements Storage: the highest generation observed in
// memory or (when an agg cache dir is configured) persisted beside the
// cache by any process sharing the directory.
func (d *DiskStorage) Generation() uint64 {
	g := d.gen.Load()
	if fg := d.readGenFile(); fg > g {
		// Another process (a live edged beside this edgeserve) moved
		// the lake forward; adopt its generation, so the next stamp this
		// process draws lies above every stamp that one drew.
		// CompareAndSwap keeps the counter monotonic against a
		// concurrent local bump.
		for fg > g && !d.gen.CompareAndSwap(g, fg) {
			g = d.gen.Load()
		}
		return d.gen.Load()
	}
	return g
}

// BumpDays implements Storage. A listed day whose stamp already reads
// at or above the new generation — another process's bump raced this
// one's read of the generation file — takes its old stamp plus one, so
// the day's stamp still strictly increases.
func (d *DiskStorage) BumpDays(days ...time.Time) uint64 {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	g := max(d.gen.Load(), d.readGenFile()) + 1
	top := g
	if d.stampDir != "" {
		for _, day := range days {
			s := g
			if old, ok := d.readStamp(day); ok && old >= s {
				s = old + 1
			}
			d.writeStamp(day, s)
			top = max(top, s)
		}
	}
	d.gen.Store(top)
	d.writeGenFile(top)
	return top
}

// DayStamp implements Storage. With an agg dir every call reads the
// day's stamp file, since another process may have bumped it since.
// Without one no other process can mutate what this one caches, and
// every day's stamp is the in-process generation: a bump of any day
// moves them all, and a store that never mutated answers 0 without a
// syscall.
func (d *DiskStorage) DayStamp(day time.Time) uint64 {
	if d.stampDir == "" {
		return d.gen.Load()
	}
	s, ok := d.readStamp(day)
	if !ok {
		return missStamp()
	}
	return s
}

// stampMisses numbers the reads of damaged stamps; see missStamp.
var stampMisses atomic.Uint64

// missStamp is what a damaged stamp reads as: a value above every
// stamp a bump can draw and different on every call, so it matches
// neither a healthy stamp nor another damaged read.
func missStamp() uint64 { return 1<<63 | stampMisses.Add(1) }

// A stamp file is stampMagic, the stamp (little-endian uint64) and the
// CRC-32C of those 8 bytes: 16 bytes, so a truncated, extended or
// garbled file fails the length, magic or checksum test.
const (
	stampMagic = "dst1"
	stampLen   = 16
)

var stampTable = crc32.MakeTable(crc32.Castagnoli)

// stampPath names day's stamp file.
func (d *DiskStorage) stampPath(day time.Time) string {
	return filepath.Join(d.stampDir, day.UTC().Format("2006-01-02"))
}

// readStamp reads day's stamp file: 0 for a day never bumped, ok=false
// for a file that exists but cannot be read whole.
func (d *DiskStorage) readStamp(day time.Time) (uint64, bool) {
	b, err := os.ReadFile(d.stampPath(day))
	switch {
	case os.IsNotExist(err):
		return 0, true
	case err != nil || len(b) != stampLen || string(b[:4]) != stampMagic ||
		crc32.Checksum(b[4:12], stampTable) != binary.LittleEndian.Uint32(b[12:]):
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[4:12]), true
}

// writeStamp records s as day's stamp. The file is replaced through a
// unique temp sibling, so two processes bumping different days never
// write through one path. A failed write is swallowed like the
// generation file's: it happens only when the agg dir itself is
// failing, and the saves the bump follows fail with it.
func (d *DiskStorage) writeStamp(day time.Time, s uint64) {
	b := make([]byte, stampLen)
	copy(b, stampMagic)
	binary.LittleEndian.PutUint64(b[4:12], s)
	binary.LittleEndian.PutUint32(b[12:], crc32.Checksum(b[4:12], stampTable))
	_ = framefile.Replace(d.stampPath(day), b)
}

// readGenFile returns the persisted generation, 0 when absent,
// unreadable, or unconfigured. No cache keys on the generation, and
// BumpDays keeps each day's stamp increasing whatever this returns, so
// a lost counter file is not worth failing a query over.
func (d *DiskStorage) readGenFile() uint64 {
	if d.genPath == "" {
		return 0
	}
	b, err := os.ReadFile(d.genPath)
	if err != nil {
		return 0
	}
	g, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return g
}

// writeGenFile persists g atomically through a unique temp sibling, so
// two processes bumping at once never share a temp path. Errors are
// swallowed for the same reason readGenFile's are.
func (d *DiskStorage) writeGenFile(g uint64) {
	if d.genPath == "" {
		return
	}
	_ = framefile.Replace(d.genPath, []byte(strconv.FormatUint(g, 10)+"\n"))
}

// invalidateRollups removes the persisted rollups whose windows cover
// day, one per grain — called when the day's data changes (rewrite,
// quarantine), so no rollup keeps serving a stale merge.
func (d *DiskStorage) invalidateRollups(day time.Time) error {
	if d.rollupDir == "" {
		return nil
	}
	var firstErr error
	for _, g := range analytics.Grains() {
		path := rollupCachePath(d.rollupDir, g, analytics.WindowStart(g, day))
		switch err := os.Remove(path); {
		case err == nil:
			mRollupInvalid.Inc()
		case !os.IsNotExist(err) && firstErr == nil:
			firstErr = err
		}
	}
	return firstErr
}
