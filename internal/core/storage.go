package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/flowrec"
	"repro/internal/framefile"
)

// Storage is the single surface the pipeline reads and writes through:
// the flow lake (day logs) and the per-day aggregate cache behind one
// interface, so a fault injector — or any alternative backend — can
// sit in front of everything at once. It is method-for-method
// identical to faultinject.Storage; a fault-wrapped Storage satisfies
// this interface structurally, which is what lets faultinject avoid
// importing core.
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
	// later reads see an outage instead of the same corruption.
	QuarantineDay(day time.Time) error
	// LoadAgg returns a cached per-day aggregate, (nil, nil) on a
	// cache miss (including "no cache configured").
	LoadAgg(day time.Time) (*analytics.DayAgg, error)
	// SaveAgg persists one day's aggregate; a no-op without a cache.
	SaveAgg(agg *analytics.DayAgg) error
	// LoadPartials returns a day's cached shard partials, (nil, nil)
	// on a miss. A sharded incremental re-run merges these instead of
	// re-reading the day's records.
	LoadPartials(day time.Time) ([]*analytics.Partial, error)
	// SavePartials persists a day's shard partials, replacing whatever
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
	// InvalidateRollups removes the persisted rollups whose windows
	// cover day — called when the day's data changes (rewrite,
	// quarantine), so no rollup keeps serving a stale merge.
	InvalidateRollups(day time.Time) error
	// Generation returns the lake generation: a monotonic counter that
	// advances on every mutation (WriteDay, quarantine, compaction,
	// live-ingest checkpoints). Anything derived from the lake — a
	// cached HTTP response, a day count — is valid exactly as long as
	// the generation it was computed under.
	Generation() uint64
	// BumpGeneration advances the generation and returns the new value.
	// Mutation paths inside Storage call it themselves; external
	// mutators (compaction, ingest checkpoints) call it after their
	// change lands.
	BumpGeneration() uint64
}

// DiskStorage is the production Storage: a flowrec day-partitioned
// store plus an optional on-disk aggregate cache directory. Either
// half may be absent — a simulation-fed pipeline with an agg cache
// has no store, edgegen's output store has no agg cache.
type DiskStorage struct {
	store     *flowrec.Store
	aggDir    string
	rollupDir string

	// genMu serializes generation bumps; gen holds the highest
	// generation this process has observed. With an agg cache dir the
	// counter is also persisted there (genPath), which is what lets a
	// live edged writer and an edgeserve reader sharing the directory
	// agree on lake freshness across processes.
	genMu   sync.Mutex
	gen     atomic.Uint64
	genPath string
}

// NewDiskStorage wires a DiskStorage; store may be nil (no flow lake)
// and aggDir may be empty (no aggregate cache).
func NewDiskStorage(store *flowrec.Store, aggDir string) *DiskStorage {
	d := &DiskStorage{store: store, aggDir: aggDir}
	if aggDir != "" {
		d.genPath = filepath.Join(aggDir, "generation")
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
		// bytes — the aggregate, the shard partials, the covering
		// rollups — must go, or a repaired day keeps serving stale
		// merges. Absent files are fine; anything else surfaces.
		werr = d.invalidateDerived(day)
		d.BumpGeneration()
	}
	return n, werr
}

// invalidateDerived drops the day's cached aggregate and shard
// partials — the whole framed file, base and deltas — with any temp
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
	if err := d.InvalidateRollups(day); err != nil && firstErr == nil {
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

// QuarantineDay implements Storage.
func (d *DiskStorage) QuarantineDay(day time.Time) error {
	if d.store == nil {
		return nil
	}
	err := d.store.QuarantineDay(day)
	if err == nil {
		d.BumpGeneration()
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
		// the lake forward; adopt its generation so caches keyed on
		// ours go stale too. CompareAndSwap keeps the counter
		// monotonic against a concurrent local bump.
		for fg > g && !d.gen.CompareAndSwap(g, fg) {
			g = d.gen.Load()
		}
		return d.gen.Load()
	}
	return g
}

// BumpGeneration implements Storage.
func (d *DiskStorage) BumpGeneration() uint64 {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	g := d.gen.Load()
	if fg := d.readGenFile(); fg > g {
		g = fg
	}
	g++
	d.gen.Store(g)
	d.writeGenFile(g)
	return g
}

// readGenFile returns the persisted generation, 0 when absent,
// unreadable, or unconfigured — a lost counter file only makes caches
// live one generation too long in a *new* process, never serves wrong
// bytes, so it is not worth failing a query over.
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

// writeGenFile persists g atomically (temp sibling + rename). Errors
// are swallowed for the same reason readGenFile's are.
func (d *DiskStorage) writeGenFile(g uint64) {
	if d.genPath == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(d.genPath), 0o755); err != nil {
		return
	}
	tmp := d.genPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(g, 10)+"\n"), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, d.genPath)
}

// InvalidateRollups implements Storage: one covering window per grain.
func (d *DiskStorage) InvalidateRollups(day time.Time) error {
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
