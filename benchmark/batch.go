package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowrec"
)

// batchFixture is the lake both batch workloads report over.
type batchFixture struct {
	cfg       config
	store     *flowrec.Store
	lakeDir   string
	records   uint64
	lakeBytes int64
}

// buildBatchLake generates the v3 lake: the "copy logs to long-term
// storage" step, timed as set-up.
func buildBatchLake(ctx context.Context, cfg config, root string) (*batchFixture, error) {
	f := &batchFixture{cfg: cfg, lakeDir: filepath.Join(root, "lake")}
	var err error
	if f.store, err = flowrec.OpenStoreFormat(f.lakeDir, flowrec.FormatV3); err != nil {
		return nil, err
	}
	gen := core.New(core.Config{Seed: cfg.seed, Scale: cfg.size.batchScale})
	if f.records, err = gen.GenerateStore(ctx, core.NewDiskStorage(f.store, ""), cfg.size.batchDays); err != nil {
		return nil, err
	}
	if f.records == 0 {
		return nil, fmt.Errorf("generated an empty lake")
	}
	f.lakeBytes = dirBytes(f.lakeDir)
	return f, nil
}

func (f *batchFixture) fixture() []kv {
	s := f.cfg.size
	return []kv{
		{"adsl_lines", int64(s.batchScale.ADSL)}, {"ftth_lines", int64(s.batchScale.FTTH)},
		{"lake_days", int64(len(s.batchDays))}, {"lake_records", int64(f.records)}, {"lake_bytes", f.lakeBytes},
	}
}

// report is one op: a fresh pipeline running the experiment list into
// a hashing writer, as one edgereport process would. aggDir/rollupDir
// are empty for the cold scan.
func (f *batchFixture) report(ctx context.Context, aggDir, rollupDir string, tr *tracer, op int64) (string, *core.Pipeline, error) {
	var cur atomic.Int64
	cur.Store(op)
	id := tr.start("core.new", op)
	p := core.New(core.Config{
		Seed: f.cfg.seed, Scale: f.cfg.size.batchScale, Stride: f.cfg.size.batchStride,
		Storage:     storageFor(f.store, aggDir, rollupDir, tr, &cur),
		AggCacheDir: aggDir, RollupDir: rollupDir,
	})
	tr.end(id)
	h := sha256.New()
	for _, name := range experimentList {
		e, ok := core.Lookup(name)
		if !ok {
			return "", nil, fmt.Errorf("experiment %s is not registered", name)
		}
		id := tr.start("report.run:"+name, op)
		cur.Store(id)
		err := e.Run(ctx, p, h)
		cur.Store(op)
		tr.end(id)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), p, nil
}

// reportLoop runs report ops until the clock (or the fixed op count)
// runs out, and checks every op hashed to want ("" adopts the first).
// The heap is collected between ops, outside the op's own time: each
// op stands for one edgereport process, which starts with none of the
// previous report's garbage.
func (f *batchFixture) reportLoop(ctx context.Context, w *window, aggDir, rollupDir string, tr *tracer, want string) *core.Pipeline {
	var last *core.Pipeline
	b := beginWindow()
	for i := 0; ; i++ {
		if n := f.cfg.size.batchOps; n > 0 && i >= n || n == 0 && time.Since(b.t0).Seconds() >= f.cfg.seconds {
			break
		}
		runtime.GC()
		traced := i%2 == 1
		tr.enable(traced)
		op := tr.start("driver.op", 0)
		t0 := time.Now()
		hash, p, err := f.report(ctx, aggDir, rollupDir, tr, op)
		d := time.Since(t0)
		tr.end(op)
		if err == nil && want == "" {
			want = hash
		}
		if err == nil && hash != want {
			err = fmt.Errorf("report hash %.12s, want %.12s", hash, want)
		}
		if err == nil {
			last = p
		}
		w.op(d, err, traced)
	}
	b.end(w)
	// Both batch workloads count work in lake records reported, so
	// "is the cache slower than a rescan" reads straight off
	// work_per_s; the median op keeps one slow report out of it.
	w.work = float64(f.records) * float64(len(w.opMs))
	if p50 := median(w.opMs); p50 > 0 {
		w.workPerS = float64(f.records) / (p50 / 1000)
	}
	w.records = f.records
	w.reportHash = want
	w.check("report hash", w.failed == 0 && want != "", "every op hashed to %.12s", want)
	return last
}

func runBatchScan(cfg config, root string, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := &window{}
	t0 := time.Now()
	f, err := buildBatchLake(ctx, cfg, root)
	if err != nil {
		return nil, err
	}
	w.setup = time.Since(t0)
	w.fixture = f.fixture()

	last := f.reportLoop(ctx, w, "", "", tr, "")
	w.diskBytes = f.lakeBytes
	w.counts = []kv{{"records", int64(f.records)}, {"lake_bytes", f.lakeBytes}, {"ops", int64(w.attempted)}}

	// Every generated record must have been folded: the last op's
	// pipeline still holds its day aggregates in memory.
	if last != nil {
		aggs, err := last.AggregateCols(ctx, cfg.size.batchDays, analytics.ColsSubscribers)
		var flows uint64
		for _, a := range aggs {
			flows += a.Flows
		}
		w.check("flows folded", err == nil && flows == f.records, "day aggregates hold %d flows, lake holds %d records (%v)", flows, f.records, err)
	}
	w.check("derived caches idle", w.delta["aggcache.disk_hits"]+w.delta["rollup.hits"] == 0, "agg-cache and rollup hits in the window: %d", w.delta["aggcache.disk_hits"]+w.delta["rollup.hits"])
	return w, nil
}

func runBatchRerun(cfg config, root string, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := &window{}
	t0 := time.Now()
	f, err := buildBatchLake(ctx, cfg, root)
	if err != nil {
		return nil, err
	}
	// Priming run: over empty cache directories it computes everything
	// from the records, so its hash is the cold report's, and it leaves
	// the derived state the window re-reads.
	aggDir, rollupDir := filepath.Join(root, "agg"), filepath.Join(root, "rollups")
	cold, _, err := f.report(ctx, aggDir, rollupDir, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("priming run: %w", err)
	}
	w.setup = time.Since(t0)
	derived := dirBytes(aggDir) + dirBytes(rollupDir)
	w.fixture = append(f.fixture(), kv{"derived_bytes", derived})

	f.reportLoop(ctx, w, aggDir, rollupDir, tr, cold)
	w.check("equals cold report", w.reportHash == cold, "cold hash %.12s (batch_scan prints the same for this seed), rerun hash %.12s", cold, w.reportHash)
	w.diskBytes = derived
	w.counts = []kv{{"records", int64(f.records)}, {"lake_bytes", f.lakeBytes}, {"ops", int64(w.attempted)}}
	w.check("no record decoded", w.delta["store.records_read"] == 0, "store.records_read moved by %d in the window", w.delta["store.records_read"])
	return w, nil
}
