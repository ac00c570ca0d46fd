package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
)

// span is one timed call made from the benchmark's side of a layer
// boundary. Times are nanoseconds since the tracer was created. The
// layer is the name up to its first dot.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// the untraced run: every method is a no-op, and the workloads do not
// interpose the storage wrapper at all. A traced run switches
// recording on and off between ops (enable), which is how one run
// yields both sides of driver.trace_overhead_share.
type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// start opens a span under parent and returns its id; 0 when the
// tracer is nil or switched off (end(0) is a no-op).
func (t *tracer) start(name string, parent int64) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// drop discards a span: a read of a day the lake does not hold is an
// outage noticed, not a read.
func (t *tracer) drop(id int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = 0
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: every span's duration
// minus the part of it its child spans cover (children may overlap
// one another - the lake is read on several goroutines - so the
// covered part is the union of their intervals, clipped to the
// parent). Spans still open when the run ended are dropped.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.End > 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].End == 0 {
			continue
		}
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedStorage spans the storage calls a pipeline or ingester makes,
// from outside both: lake reads and writes are flowrec's time, the
// derived-state files (agg cache, partials, rollups) are core's. The
// parent is whatever driver-side span is current for the component
// that owns this wrapper. ReadDay spans include the fold callback the
// caller passes in; the ladder prices the two apart.
type tracedStorage struct {
	core.Storage
	tr     *tracer
	parent *atomic.Int64
}

// storageFor builds the storage a workload component runs over:
// DiskStorage as core.New would wire it, wrapped only when traced.
func storageFor(store *flowrec.Store, aggDir, rollupDir string, tr *tracer, parent *atomic.Int64) core.Storage {
	var st core.Storage = core.NewDiskStorage(store, aggDir).WithRollupDir(rollupDir)
	if tr != nil {
		st = &tracedStorage{Storage: st, tr: tr, parent: parent}
	}
	return st
}

func (s *tracedStorage) span(name string) int64 { return s.tr.start(name, s.parent.Load()) }

func (s *tracedStorage) ReadDay(day time.Time, fn func(*flowrec.Record) error) error {
	return s.ReadDayCols(day, flowrec.ColScan{}, fn)
}

func (s *tracedStorage) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	id := s.span("flowrec.read_day")
	err := s.Storage.ReadDayCols(day, sc, fn)
	if errors.Is(err, flowrec.ErrNoDay) {
		s.tr.drop(id)
	} else {
		s.tr.end(id)
	}
	return err
}

func (s *tracedStorage) WriteDay(day time.Time, emit func(write func(*flowrec.Record) error) error) (uint64, error) {
	defer s.tr.end(s.span("flowrec.write_day"))
	return s.Storage.WriteDay(day, emit)
}

func (s *tracedStorage) LoadAgg(day time.Time) (*analytics.DayAgg, error) {
	defer s.tr.end(s.span("core.load_agg"))
	return s.Storage.LoadAgg(day)
}

func (s *tracedStorage) SaveAgg(agg *analytics.DayAgg) error {
	defer s.tr.end(s.span("core.save_agg"))
	return s.Storage.SaveAgg(agg)
}

func (s *tracedStorage) LoadPartials(day time.Time) ([]*analytics.Partial, error) {
	defer s.tr.end(s.span("core.load_partials"))
	return s.Storage.LoadPartials(day)
}

func (s *tracedStorage) SavePartials(day time.Time, parts []*analytics.Partial) error {
	defer s.tr.end(s.span("core.save_partials"))
	return s.Storage.SavePartials(day, parts)
}

func (s *tracedStorage) LoadRollup(g analytics.Grain, start time.Time) (*analytics.Rollup, error) {
	defer s.tr.end(s.span("core.load_rollup"))
	return s.Storage.LoadRollup(g, start)
}

func (s *tracedStorage) SaveRollup(r *analytics.Rollup) error {
	defer s.tr.end(s.span("core.save_rollup"))
	return s.Storage.SaveRollup(r)
}

// tracedCompactor spans the background compaction of a sealed day.
type tracedCompactor struct {
	ingest.Compactor
	tr     *tracer
	parent *atomic.Int64
}

func (c *tracedCompactor) CompactDay(day time.Time, format flowrec.Format) (uint64, error) {
	defer c.tr.end(c.tr.start("flowrec.compact_day", c.parent.Load()))
	return c.Compactor.CompactDay(day, format)
}
