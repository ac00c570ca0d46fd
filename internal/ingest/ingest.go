// Package ingest is the live half of the reproduction: the paper's
// pipeline did not replay sealed day files, it watched flows arrive
// at the ISP edge for five years and had to absorb them continuously,
// survive its own crashes, and keep "today so far" queryable while
// today was still happening (sections 2.2–2.3). The Ingester is that
// loop: records enter in export order, land in a per-day write-ahead
// log, fold into a live analytics.Partial that is checkpointed
// incrementally through the parts-* files the pipeline's aggregate
// cache reads (so Pipeline serves hot days with zero extra
// machinery) — each checkpoint appends only what was folded since the
// last one, and the appended deltas are folded back into one base on
// a size rule — and seal into ordinary lake day files at rollover
// — after which background compaction rewrites them columnar. The
// WAL/lake pair is an LSM: unsealed data lives only in the WAL, the
// sealed lake is immutable, and the merge monoid guarantees the
// streamed result is byte-identical to a batch build of the same
// days.
//
// Crash contract: a record is durable once its WAL append has been
// flushed (every checkpoint flushes first). Recovery replays each
// open day's WAL over its last checkpoint — the checkpoint's whole
// frames say how many leading WAL frames they cover (a torn or
// damaged frame ends the list: an older snapshot, still a WAL
// prefix), replay folds the rest — and the resume cursor plus per-day
// stream ordinals make re-delivered records exact no-ops. No crash
// point loses or double-counts a record; crash_test.go proves it by
// killing the loop everywhere. "Durable" means handed to the kernel:
// nothing here fsyncs, so the contract holds against the process
// dying, not against the machine losing power.
package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/framefile"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// Ingest observability — the counters the paper's operators would
// have watched across five unattended years.
var (
	mRecords     = metrics.GetCounter("ingest.records")
	mLagSeconds  = metrics.GetGauge("ingest.lag_seconds")
	mCheckpoints = metrics.GetCounter("ingest.checkpoints")
	mSeals       = metrics.GetCounter("ingest.seals")
	mRecoveries  = metrics.GetCounter("ingest.recoveries")

	mOpenDays      = metrics.GetGauge("ingest.open_days")
	mDupsDropped   = metrics.GetCounter("ingest.duplicates_dropped")
	mRecovered     = metrics.GetCounter("ingest.recovered_records")
	mCkptFailures  = metrics.GetCounter("ingest.checkpoint_failures")
	mSealFailures  = metrics.GetCounter("ingest.seal_failures")
	mCompactions   = metrics.GetCounter("ingest.compactions")
	mCompactErrors = metrics.GetCounter("ingest.compaction_failures")

	// Write amplification and read fan-in of the checkpoint files:
	// bytes written by checkpoints (delta frames and base rewrites
	// alike), how many of them rewrote the base, and how many frames a
	// hot-day reader must merge across the open days right now.
	mCkptBytes    = metrics.GetCounter("ingest.checkpoint_bytes")
	mBaseRewrites = metrics.GetCounter("ingest.base_rewrites")
	mCkptFrames   = metrics.GetGauge("ingest.checkpoint_frames")
)

// Storage is the slice of the pipeline storage surface the daemon
// writes through: sealed days into the lake, checkpoint partials into
// the aggregate cache. It is structurally satisfied by core's
// DiskStorage and by faultinject's wrapper — declared here so the
// dependency arrow keeps pointing from core to the leaves.
type Storage interface {
	WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error)
	HasDay(day time.Time) bool
	SavePartials(day time.Time, parts []*analytics.Partial) error
	AppendPartial(day time.Time, p *analytics.Partial) error
	PartialsSize(day time.Time) (base, total int64)
	LoadPartials(day time.Time) ([]*analytics.Partial, error)
	SweepTemps(day time.Time) error
}

// Compactor rewrites a sealed day into another format in place;
// *flowrec.Store satisfies it.
type Compactor interface {
	CompactDay(day time.Time, format flowrec.Format) (uint64, error)
}

// dayBumper is the optional day-stamp surface (see
// core.Storage.BumpDays). The Storage interface above stays the
// minimal write slice; when the wired backend also keeps day stamps
// (DiskStorage does), the daemon bumps the day it changed after a
// checkpoint, each recovered day after recovery and the compacted day
// after a compaction, so caches over the shared lake drop what read
// that day and keep the rest. Seals bump implicitly through WriteDay.
type dayBumper interface {
	BumpDays(days ...time.Time) uint64
}

// bumpDays advances the stamps of days when the backend keeps them.
func (in *Ingester) bumpDays(days ...time.Time) {
	if b, ok := in.cfg.Storage.(dayBumper); ok {
		b.BumpDays(days...)
	}
}

// Config wires an Ingester.
type Config struct {
	// Storage receives sealed days and checkpoint partials. Required.
	Storage Storage
	// WALDir holds the per-day write-ahead segments and the resume
	// cursor. Required. Convention: <lake root>/.wal (which the lake's
	// Days() scan skips).
	WALDir string
	// Classifier drives live aggregation; nil means classify.Default.
	Classifier *classify.Classifier
	// CheckpointEvery checkpoints a day after that many new records
	// (0 = 4096). Checkpoints are also available on demand
	// (CheckpointAll) for interval-based policies.
	CheckpointEvery int
	// Grace is how long past a day's midnight flows of that day may
	// still arrive (flows are exported when they end). A day seals
	// once the stream clock passes end-of-day + Grace. 0 = 8h, which
	// clears simnet's 6h flow-duration cap.
	Grace time.Duration
	// SealEmptyDays seals a valid zero-record day file for calendar
	// days the stream clock crosses without traffic — "probe up, no
	// flows", distinct from an outage gap. Leave off for strided
	// (non-contiguous) ingestion.
	SealEmptyDays bool
	// Compactor, when set, enables background compaction of sealed
	// days into CompactFormat (the LSM's second level). Days seal in
	// the store's native write format either way.
	Compactor     Compactor
	CompactFormat flowrec.Format
	// CompactSync compacts inline during seal instead of in the
	// background worker — deterministic, for tests.
	CompactSync bool
	// Retry absorbs transient checkpoint/seal failures.
	Retry retry.Policy
	// Faults injects deterministic failures on the checkpoint and
	// seal operations (ops "checkpoint", "seal"); storage-level
	// faults come wrapped around Storage itself.
	Faults *faultinject.Plan
	// Logf, when set, receives operational messages (degradations,
	// compaction errors). Default: silent.
	Logf func(format string, args ...interface{})
}

// cursorVersion invalidates old cursor files if the resume schema
// or the file format changes. It travels inside the file: the cursor's
// name is fixed.
const cursorVersion = 2

// cursorFile is the durable resume state, written atomically beside
// the WAL segments at every checkpoint: every stream record with
// Seq < Seq is durably absorbed (flushed WAL or sealed day), and
// Days[d] is how many day-d records the stream had delivered at that
// point — the ordinal base that lets a resumed stream drop
// re-delivered records exactly.
type cursorFile struct {
	Version int
	Seq     uint64
	Days    map[int64]uint64
}

// dayState is one open (unsealed) day.
type dayState struct {
	day time.Time
	wal *walWriter // nil until the first append (or after a seal attempt)

	agg  *analytics.Aggregator // live records since the last checkpoint
	base *analytics.Partial    // merged checkpointed partials, nil before the first
	live uint64                // records in agg

	// The checkpoint file as this incarnation left it: how many frames
	// it holds (one base, then deltas), the base frame's bytes and the
	// file's. frames is 0 until this incarnation has written the base
	// itself, and again after a failed write — a file it did not write
	// whole is never appended to.
	frames              int
	baseBytes, fileSize int64

	count   uint64 // records absorbed (WAL frames), checkpointed or not
	ordinal uint64 // day records seen in the stream, duplicates included
	walHave uint64 // recovered frames a resumed stream re-delivers as dups

	// retryAfter defers re-sealing after a failed seal until the
	// stream clock has moved on — degradation must not turn into a
	// per-record retry storm.
	retryAfter time.Time
}

// Ingester is the live ingest loop. It is not safe for concurrent
// use: one goroutine feeds it, exactly like one probe fed the
// paper's collector. (Queries run concurrently through the Pipeline,
// which reads the checkpoint snapshots from disk, not this struct.)
type Ingester struct {
	cfg    Config
	cls    *classify.Classifier
	days   map[int64]*dayState
	sealed map[int64]bool // lake-day existence cache

	seq       uint64 // next stream Seq expected
	resume    uint64 // durable cursor (≤ seq)
	watermark time.Time
	wmDay     time.Time // watermark's UTC day (rollover edge detector)
	nextDue   time.Time // earliest open-day seal deadline (zero: none)

	compactCh chan time.Time
	compactWG chan struct{} // closed when the worker drains
}

// Open builds an Ingester over cfg, recovering any state a previous
// incarnation left in the WAL: for every unsealed WAL day it reloads
// the last checkpoint (its base frame and every whole delta behind
// it), replays the uncovered WAL suffix into the live aggregator,
// rewrites the checkpoint as one base frame covering both, and
// computes the stream cursor to resume from (Resume()). WAL days that
// already exist in the lake were sealed by
// a crashed incarnation after their WriteDay committed; their
// segments are discarded.
func Open(cfg Config) (*Ingester, error) {
	if cfg.Storage == nil {
		return nil, fmt.Errorf("ingest: Config.Storage is required")
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("ingest: Config.WALDir is required")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 8 * time.Hour
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	cls := cfg.Classifier
	if cls == nil {
		cls = classify.Default()
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	in := &Ingester{
		cfg:    cfg,
		cls:    cls,
		days:   make(map[int64]*dayState),
		sealed: make(map[int64]bool),
	}

	// A kill mid-cursor-write leaves a temp orphan (the final rename
	// never ran); sweep them so attempts cannot accumulate.
	if err := framefile.RemoveTemps(cursorPath(cfg.WALDir)); err != nil {
		cfg.Logf("ingest: sweeping cursor temps: %v", err)
	}

	cur := loadCursor(cfg.WALDir)
	in.seq, in.resume = cur.Seq, cur.Seq

	walFound, err := walDays(cfg.WALDir)
	if err != nil {
		return nil, err
	}
	recovered := false
	for _, day := range walFound {
		if cfg.Storage.HasDay(day) {
			// Sealed, then crashed before the segments were removed:
			// WriteDay is atomic, so existence implies completeness.
			if err := removeDayWAL(cfg.WALDir, day); err != nil {
				return nil, err
			}
			in.sealed[day.Unix()] = true
			recovered = true
			continue
		}
		st, err := in.recoverDay(day, cur.Days[day.Unix()])
		if err != nil {
			return nil, err
		}
		in.days[day.Unix()] = st
		recovered = true
	}
	// Recovered days go back to one base frame covering everything the
	// WAL held: whatever tail the dead incarnation tore is gone before
	// anything is appended behind it, and hot-day queries see the
	// replayed records at once. (After the loop: the cursor a checkpoint
	// writes names every open day.)
	for _, st := range in.sortedDays() {
		in.checkpointDay(context.TODO(), st, true)
	}
	// The watermark restarts at zero and rebuilds from the resumed
	// stream. Guessing it from the WAL would be worse than useless: an
	// overestimate seals a day whose torn-off tail is still pending
	// re-delivery, and the re-delivered records then drop as "already
	// sealed" — silent loss. Export-ordered delivery plus a watermark
	// only records can advance makes that impossible.
	if recovered || cur.Seq > 0 {
		mRecoveries.Inc()
	}
	if recovered {
		// Recovery may have replayed WAL tails into fresh partials;
		// anything cached against a recovered day's pre-crash state must
		// revalidate.
		in.bumpDays(in.OpenDays()...)
	}
	mOpenDays.Set(int64(len(in.days)))
	in.recomputeDue()

	if cfg.Compactor != nil && !cfg.CompactSync {
		in.compactCh = make(chan time.Time, 64)
		in.compactWG = make(chan struct{})
		go in.compactWorker()
	}
	return in, nil
}

// recoverDay rebuilds one open day from checkpoint + WAL replay.
func (in *Ingester) recoverDay(day time.Time, ordinalBase uint64) (*dayState, error) {
	st := &dayState{day: day, agg: analytics.NewAggregator(day, in.cls), ordinal: ordinalBase}

	// A base rewrite killed before its rename left a temp sibling, and
	// this ingester is now the day's one writer.
	if err := in.cfg.Storage.SweepTemps(day); err != nil {
		in.cfg.Logf("ingest: sweeping %s checkpoint temps: %v", day.Format("2006-01-02"), err)
	}

	var covered uint64
	if parts, err := in.cfg.Storage.LoadPartials(day); err == nil && len(parts) > 0 {
		base := analytics.NewPartial(day)
		for _, p := range parts {
			if err := base.Merge(p); err != nil {
				return nil, fmt.Errorf("ingest: recovering %s: %w", day.Format("2006-01-02"), err)
			}
		}
		st.base = base
		covered = base.Agg.Flows
	}

	// Replay the WAL over the checkpoint: skip the covered prefix,
	// fold the rest live. The aggregator counts every record exactly
	// once (Flows), which is what makes "covered" recoverable from
	// the checkpoint itself.
	var seen uint64
	frames, err := replayDay(in.cfg.WALDir, day, func(r *flowrec.Record) error {
		seen++
		if seen <= covered {
			return nil
		}
		st.agg.Add(r)
		st.live++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if covered > frames {
		// The checkpoint claims records the WAL does not have — it can
		// only be stale damage (checkpoints flush the WAL first).
		// The WAL is ground truth: rebuild from it alone.
		in.cfg.Logf("ingest: %s: checkpoint covers %d records but WAL holds %d; rebuilding from WAL",
			day.Format("2006-01-02"), covered, frames)
		st.base = nil
		st.agg = analytics.NewAggregator(day, in.cls)
		st.live = 0
		if _, err := replayDay(in.cfg.WALDir, day, func(r *flowrec.Record) error {
			st.agg.Add(r)
			st.live++
			return nil
		}); err != nil {
			return nil, err
		}
	}
	st.count = frames
	st.walHave = frames
	if st.ordinal > frames {
		// Cursor counted deliveries the WAL lost (it cannot: the
		// cursor is written after the flush). Trust the WAL.
		st.ordinal = frames
	}
	mRecovered.Add(frames)
	return st, nil
}

// Resume returns the stream Seq to seek to before feeding records:
// everything before it is durably absorbed. Records at or after it
// may be re-delivered; the Ingester drops the ones it already has.
func (in *Ingester) Resume() uint64 { return in.resume }

// Watermark returns the stream clock: the export time of the newest
// absorbed record.
func (in *Ingester) Watermark() time.Time { return in.watermark }

// OpenDays returns the currently unsealed days, ascending.
func (in *Ingester) OpenDays() []time.Time {
	out := make([]time.Time, 0, len(in.days))
	for _, st := range in.days {
		out = append(out, st.day)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// state returns (creating if needed) the open-day state for day.
func (in *Ingester) state(day time.Time) *dayState {
	k := day.Unix()
	st := in.days[k]
	if st == nil {
		st = &dayState{day: day, agg: analytics.NewAggregator(day, in.cls)}
		in.days[k] = st
		mOpenDays.Set(int64(len(in.days)))
		if due := dueTime(day, in.cfg.Grace); in.nextDue.IsZero() || due.Before(in.nextDue) {
			in.nextDue = due
		}
	}
	return st
}

// dueTime is when a day's grace window closes and it should seal.
func dueTime(day time.Time, grace time.Duration) time.Time {
	return day.AddDate(0, 0, 1).Add(grace)
}

// recomputeDue refreshes the earliest seal deadline across open days.
func (in *Ingester) recomputeDue() {
	in.nextDue = time.Time{}
	for _, st := range in.days {
		due := dueTime(st.day, in.cfg.Grace)
		if st.retryAfter.After(due) {
			due = st.retryAfter
		}
		if in.nextDue.IsZero() || due.Before(in.nextDue) {
			in.nextDue = due
		}
	}
}

// Ingest absorbs one record whose flow ended at time at (at is the
// stream clock; it must be non-decreasing across calls). The record
// is cut into its Start day — a flow that straddled midnight lands in
// the day it began, exactly like the batch generator partitions.
// Rollover (sealing due days) and incremental checkpoints happen
// inside. The record is copied; the caller may reuse it.
func (in *Ingester) Ingest(ctx context.Context, rec *flowrec.Record, at time.Time) error {
	day := rec.Day()
	k := day.Unix()

	sealed, known := in.sealed[k]
	if !known {
		sealed = in.days[k] == nil && in.cfg.Storage.HasDay(day)
		in.sealed[k] = sealed
	}
	if sealed {
		// Re-delivered record of a day this (or a previous) incarnation
		// already sealed: the lake has it; absorbing it again would
		// double-count.
		mDupsDropped.Inc()
		in.seq++
		return in.advance(ctx, at)
	}

	st := in.state(day)
	st.ordinal++
	in.seq++
	if st.ordinal <= st.walHave {
		// A resumed stream re-delivering a record the recovered WAL
		// already holds (and replay already folded).
		mDupsDropped.Inc()
		return in.advance(ctx, at)
	}

	if st.wal == nil {
		w, err := openSegment(in.cfg.WALDir, day)
		if err != nil {
			return err
		}
		st.wal = w
	}
	// Fold the record exactly as the codec will persist it, so the
	// live aggregate and the eventual sealed-day fold are the same
	// computation — byte-identical canonical aggregates, hot or
	// sealed.
	q := *rec
	q.Quantize()
	if err := st.wal.append(&q); err != nil {
		return fmt.Errorf("ingest: wal append %s: %w", day.Format("2006-01-02"), err)
	}
	st.agg.Add(&q)
	st.live++
	st.count++
	mRecords.Inc()

	if st.live >= uint64(in.cfg.CheckpointEvery) {
		in.checkpointDay(ctx, st, false)
	}
	return in.advance(ctx, at)
}

// advance moves the stream clock and runs rollover when it crosses a
// day boundary.
func (in *Ingester) advance(ctx context.Context, at time.Time) error {
	if at.After(in.watermark) {
		in.watermark = at
	}
	wmDay := utcDay(in.watermark)
	if wmDay.Equal(in.wmDay) {
		if !in.nextDue.IsZero() && !in.watermark.Before(in.nextDue) {
			// A grace window closed mid-day: seal without waiting for
			// the next calendar rollover.
			err := in.rollover(ctx)
			in.updateLag()
			return err
		}
		in.updateLag()
		return nil
	}
	if in.cfg.SealEmptyDays && !in.wmDay.IsZero() {
		// Every calendar day the clock crossed exists, traffic or not:
		// a silent probe day seals as an empty (valid) day file,
		// distinguishable from an outage gap.
		for d := in.wmDay.AddDate(0, 0, 1); !d.After(wmDay); d = d.AddDate(0, 0, 1) {
			if !in.sealed[d.Unix()] && !in.cfg.Storage.HasDay(d) {
				in.state(d)
			}
		}
	}
	in.wmDay = wmDay
	err := in.rollover(ctx)
	in.updateLag()
	return err
}

// updateLag publishes how overdue the oldest open day's seal is.
func (in *Ingester) updateLag() {
	var lag time.Duration
	for _, st := range in.days {
		due := st.day.AddDate(0, 0, 1).Add(in.cfg.Grace)
		if d := in.watermark.Sub(due); d > lag {
			lag = d
		}
	}
	mLagSeconds.Set(int64(lag / time.Second))
}

// rollover seals every open day whose grace window the stream clock
// has passed. A failed seal degrades: the day stays open (WAL and
// checkpoints intact, hot queries keep answering) and the next
// rollover retries it.
func (in *Ingester) rollover(ctx context.Context) error {
	var due []*dayState
	for _, st := range in.days {
		if !in.watermark.Before(dueTime(st.day, in.cfg.Grace)) && !in.watermark.Before(st.retryAfter) {
			due = append(due, st)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].day.Before(due[j].day) })
	defer in.recomputeDue()
	var firstErr error
	for _, st := range due {
		if err := in.sealDay(ctx, st); err != nil {
			mSealFailures.Inc()
			st.retryAfter = in.watermark.Add(30 * time.Minute)
			in.cfg.Logf("ingest: seal %s failed (day stays open): %v", st.day.Format("2006-01-02"), err)
			if firstErr == nil {
				firstErr = err
			}
			if ctx != nil && ctx.Err() != nil {
				return firstErr
			}
		}
	}
	return nil
}

// sealDay turns one open day into a sealed lake day: flush WAL →
// WriteDay (atomic; its success drops the day's checkpoint partials
// and covering rollups via the storage's own invalidation) → remove
// WAL → compact in the background.
func (in *Ingester) sealDay(ctx context.Context, st *dayState) error {
	if st.wal != nil {
		if err := st.wal.close(); err != nil {
			return err
		}
		st.wal = nil
	}
	day := st.day
	op := func() error {
		if err := in.cfg.Faults.OpFault(faultinject.OpSeal, day); err != nil {
			return err
		}
		_, err := in.cfg.Storage.WriteDay(day, func(write func(*flowrec.Record) error) error {
			_, rerr := replayDay(in.cfg.WALDir, day, func(r *flowrec.Record) error {
				return write(r)
			})
			return rerr
		})
		return err
	}
	if err := in.cfg.Retry.Do(ctx, uint64(day.Unix()), op); err != nil {
		return err
	}
	if err := removeDayWAL(in.cfg.WALDir, day); err != nil {
		return err
	}
	delete(in.days, day.Unix())
	in.sealed[day.Unix()] = true
	mOpenDays.Set(int64(len(in.days)))
	in.updateFrames()
	mSeals.Inc()
	in.compact(day)
	return nil
}

// checkpointDay folds the live aggregator into the day's base partial
// and persists what it folded: appended to the day's checkpoint file
// as a delta frame, so the cost is that of the records since the last
// checkpoint, or — when this incarnation has no whole file of its own
// yet, when the deltas appended since the last rewrite outweigh the
// base frame, or when fold is set (recovery, Close) and deltas are
// outstanding — as a rewrite of the file to one base frame. The rule
// bounds a reader's fan-in at twice the base and needs no tuning: both
// sizes come off the file. The fold happens first, so a failed write
// degrades to "checkpoint is stale" — the base stays in memory, the
// WAL stays authoritative, and the next checkpoint rewrites the file
// whole rather than append behind what may be a torn frame.
func (in *Ingester) checkpointDay(ctx context.Context, st *dayState, fold bool) {
	if st.live == 0 && (!fold || st.base == nil || st.frames == 1) {
		return
	}
	if st.wal != nil {
		if err := st.wal.flush(); err != nil {
			in.cfg.Logf("ingest: wal flush %s: %v", st.day.Format("2006-01-02"), err)
			return // without a durable WAL prefix the snapshot may cover lost records
		}
	}
	delta := st.agg.Partial()
	st.agg = analytics.NewAggregator(st.day, in.cls)
	st.live = 0
	if st.base == nil {
		st.base = analytics.NewPartial(st.day)
	}
	if err := st.base.Merge(delta); err != nil {
		in.cfg.Logf("ingest: checkpoint merge %s: %v", st.day.Format("2006-01-02"), err)
		return
	}
	day := st.day
	rewrite := fold || st.frames == 0 || st.fileSize-st.baseBytes > st.baseBytes
	op := func() error {
		if err := in.cfg.Faults.OpFault(faultinject.OpCheckpoint, day); err != nil {
			return err
		}
		if rewrite {
			return in.cfg.Storage.SavePartials(day, []*analytics.Partial{st.base})
		}
		return in.cfg.Storage.AppendPartial(day, delta)
	}
	if err := in.cfg.Retry.Do(ctx, uint64(day.Unix()), op); err != nil {
		st.frames = 0
		in.updateFrames()
		mCkptFailures.Inc()
		in.cfg.Logf("ingest: checkpoint %s failed (will retry with next batch): %v",
			day.Format("2006-01-02"), err)
		return
	}
	mCheckpoints.Inc()
	if rewrite {
		mBaseRewrites.Inc()
		st.frames, st.fileSize = 0, 0
	}
	st.frames++
	base, total := in.cfg.Storage.PartialsSize(day)
	mCkptBytes.Add(uint64(max(total-st.fileSize, 0)))
	st.baseBytes, st.fileSize = base, total
	in.updateFrames()
	// New partials are now visible to a hot-day reader sharing the agg
	// cache: move the day's stamp so what it cached from the day
	// refetches.
	in.bumpDays(day)
	if err := in.writeCursor(); err != nil {
		in.cfg.Logf("ingest: cursor: %v", err)
	}
}

// updateFrames publishes the frames outstanding across the open days'
// checkpoint files.
func (in *Ingester) updateFrames() {
	n := 0
	for _, st := range in.days {
		n += st.frames
	}
	mCkptFrames.Set(int64(n))
}

// CheckpointAll checkpoints every open day — the interval-based
// trigger (edged calls it on a timer).
func (in *Ingester) CheckpointAll(ctx context.Context) {
	for _, st := range in.sortedDays() {
		in.checkpointDay(ctx, st, false)
	}
}

// SealAll seals every open day regardless of grace — the end-of-
// stream path. Days that fail stay open; the first error is returned
// after all are attempted.
func (in *Ingester) SealAll(ctx context.Context) error {
	var firstErr error
	for _, st := range in.sortedDays() {
		if err := in.sealDay(ctx, st); err != nil {
			mSealFailures.Inc()
			in.cfg.Logf("ingest: seal %s failed: %v", st.day.Format("2006-01-02"), err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	in.updateLag()
	return firstErr
}

// Close shuts the Ingester down gracefully without sealing: open days
// are checkpointed down to one base frame each, their WAL segments
// flushed and closed, the resume cursor written, and the background
// compactor drained. A later Open over the same WALDir continues
// exactly where this one stopped.
func (in *Ingester) Close(ctx context.Context) error {
	for _, st := range in.sortedDays() {
		in.checkpointDay(ctx, st, true)
	}
	var firstErr error
	for _, st := range in.days {
		if st.wal != nil {
			if err := st.wal.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			st.wal = nil
		}
	}
	if err := in.writeCursor(); err != nil && firstErr == nil {
		firstErr = err
	}
	if in.compactCh != nil {
		close(in.compactCh)
		<-in.compactWG
		in.compactCh = nil
	}
	return firstErr
}

// sortedDays returns open-day states ascending by day.
func (in *Ingester) sortedDays() []*dayState {
	out := make([]*dayState, 0, len(in.days))
	for _, st := range in.days {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].day.Before(out[j].day) })
	return out
}

// compact hands a sealed day to the compaction worker (or compacts
// inline under CompactSync). A failed compaction is not data loss —
// the day stays in its sealed row format, still a valid lake day.
func (in *Ingester) compact(day time.Time) {
	if in.cfg.Compactor == nil {
		return
	}
	if in.cfg.CompactSync || in.compactCh == nil {
		in.compactDay(day)
		return
	}
	in.compactCh <- day
}

func (in *Ingester) compactDay(day time.Time) {
	if _, err := in.cfg.Compactor.CompactDay(day, in.cfg.CompactFormat); err != nil {
		mCompactErrors.Inc()
		in.cfg.Logf("ingest: compact %s: %v", day.Format("2006-01-02"), err)
		return
	}
	mCompactions.Inc()
	// The day's physical bytes changed format; what readers derived
	// from the day must revalidate.
	in.bumpDays(day)
}

func (in *Ingester) compactWorker() {
	defer close(in.compactWG)
	for day := range in.compactCh {
		in.compactDay(day)
	}
}

// cursorPath names the resume-cursor file.
func cursorPath(walDir string) string { return filepath.Join(walDir, "cursor") }

// loadCursor reads the resume cursor; absent or damaged reads as the
// zero cursor (resume from the stream start — recovery dedup makes
// that correct, just slower).
func loadCursor(walDir string) cursorFile {
	var cur cursorFile
	if framefile.Load(cursorPath(walDir), &cur) != nil || cur.Version != cursorVersion {
		return cursorFile{}
	}
	return cur
}

// writeCursor flushes every open day's WAL (the durability the cursor
// asserts) and atomically persists the resume state.
func (in *Ingester) writeCursor() error {
	for _, st := range in.days {
		if st.wal != nil {
			if err := st.wal.flush(); err != nil {
				return err
			}
		}
	}
	cur := cursorFile{Version: cursorVersion, Seq: in.seq, Days: make(map[int64]uint64, len(in.days))}
	for k, st := range in.days {
		cur.Days[k] = st.ordinal
	}
	if _, err := framefile.Save(cursorPath(in.cfg.WALDir), cur); err != nil {
		return err
	}
	in.resume = cur.Seq
	return nil
}

// utcDay truncates t to its UTC midnight.
func utcDay(t time.Time) time.Time {
	y, m, d := t.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}
