package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/simnet"
)

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// runLadder prices the layers one at a time: each public function
// called alone over one pinned day - the batch lake's last, which the
// report's April and span figures both read - at ladderScale, with the
// run's seed. A function's self time is its own pass minus the passes
// of the functions it calls, measured the same way. Each rung runs
// once - these figures point at a layer, they are not gated.
func runLadder(cfg config, dir string, m map[string]float64) error {
	ctx := context.Background()
	day := cfg.size.batchDays[len(cfg.size.batchDays)-1]
	scale := cfg.size.ladderScale
	world := simnet.NewWorld(cfg.seed, scale)
	cls := classify.Default()
	var firstErr error
	fail := func(what string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", what, err)
		}
	}

	// simnet: batch emission and the export-order stream.
	var recs []flowrec.Record
	d := timed(func() { world.EmitDay(day, func(r *flowrec.Record) { recs = append(recs, *r) }) })
	n := float64(len(recs))
	if n == 0 {
		return fmt.Errorf("pinned day %s emitted no records", day.Format("2006-01-02"))
	}
	perRec := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	m["simnet.emit_ns_per_record"] = perRec(d)
	var stream []simnet.StreamRecord
	d = timed(func() { stream = bufferStream(world, []time.Time{day}, 0, len(recs)) })
	m["simnet.stream_ns_per_record"] = float64(d.Nanoseconds()) / float64(len(stream))

	// flowrec, write side: the two encodings and the compaction
	// between them.
	emitAll := func(write func(*flowrec.Record) error) error {
		for i := range recs {
			if err := write(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	stores := map[flowrec.Format]*flowrec.Store{}
	for _, f := range []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3} {
		store, err := flowrec.OpenStoreFormat(filepath.Join(dir, "lake-"+f.String()), f)
		if err != nil {
			return err
		}
		stores[f] = store
		d = timed(func() { _, err = core.NewDiskStorage(store, "").WriteDay(day, emitAll) })
		fail("write "+f.String(), err)
		m["flowrec.encode_"+f.String()+"_ns_per_record"] = perRec(d)
	}
	v3 := stores[flowrec.FormatV3]
	m["flowrec.lake_bytes_per_record"] = float64(dirBytes(v3.Root())) / n
	d = timed(func() { _, err := stores[flowrec.FormatV1].CompactDay(day, flowrec.FormatV3); fail("compact", err) })
	m["flowrec.compact_ms_per_day"] = ms(d)

	// flowrec, read side: full width, the subscriber projection the
	// report mostly asks for, and a pushdown scan as /v1/scan compiles
	// it. Byte counts come from the store's own counters.
	discard := func(*flowrec.Record) error { return nil }
	d = timed(func() { fail("read full", v3.ReadDay(day, discard)) })
	m["flowrec.read_full_ns_per_record"] = perRec(d)
	c0 := snapshotCounters()
	d = timed(func() {
		fail("read narrow", v3.ReadDayCols(day, flowrec.ColScan{Cols: analytics.ColsSubscribers}, discard))
	})
	c := snapshotCounters().since(c0)
	m["flowrec.read_narrow_ns_per_record"] = perRec(d)
	m["flowrec.inflated_bytes_per_record"] = float64(c["store.bytes_read"]) / n
	m["flowrec.decoded_bytes_per_record"] = float64(c["store.decoded_bytes"]) / n
	c0 = snapshotCounters()
	pred := &flowrec.Pred{HasTech: true, Tech: flowrec.TechFTTH, HasSrvPort: true, SrvPortLo: 443, SrvPortHi: 443}
	d = timed(func() {
		fail("read pushdown", v3.ReadDayCols(day, flowrec.ColScan{Cols: flowrec.Cols(flowrec.ColServerName, flowrec.ColBytesDown), Pred: pred}, discard))
	})
	c = snapshotCounters().since(c0)
	m["flowrec.read_pushdown_ns_per_record"] = perRec(d)
	m["flowrec.blocks_skipped_share"] = share(c["store.blocks_skipped"], c["store.blocks_skipped"]+c["store.blocks_read"])

	// classify and the analytics fold, over records already in memory.
	d = timed(func() {
		for i := range recs {
			cls.LookupID(recs[i].ServerName)
		}
	})
	m["classify.lookup_ns_per_record"] = perRec(d)
	fold := func(a *analytics.Aggregator, shard, of int) {
		for i := range recs {
			if of == 1 || recs[i].Shard(of) == shard {
				a.Add(&recs[i])
			}
		}
	}
	full := analytics.NewAggregator(day, cls)
	dFold := timed(func() { fold(full, 0, 1) })
	m["analytics.fold_ns_per_record"] = perRec(dFold)
	var agg *analytics.DayAgg
	dFinish := timed(func() { agg = full.Result() })
	m["analytics.finish_ms_per_day"] = ms(dFinish)
	narrow := analytics.NewAggregatorCols(day, cls, analytics.ColsSubscribers)
	dNarrow := timed(func() { fold(narrow, 0, 1) })
	m["analytics.fold_narrow_ns_per_record"] = perRec(dNarrow)
	dNarrow += timed(func() { narrow.Result() })
	var parts []*analytics.Partial
	for shard := 0; shard < 2; shard++ {
		a := analytics.NewAggregator(day, cls)
		fold(a, shard, 2)
		parts = append(parts, a.Partial())
	}
	d = timed(func() { _, err := analytics.MergePartials(day, parts); fail("merge", err) })
	m["analytics.shard_merge_ms_per_day"] = ms(d)
	aggs := []*analytics.DayAgg{agg}
	d = timed(func() {
		analytics.MonthlySeries(aggs)
		analytics.ActiveSeries(aggs)
		analytics.ProtocolShares(aggs)
		for _, tech := range []flowrec.AccessTech{flowrec.TechADSL, flowrec.TechFTTH} {
			analytics.DailyVolumeDist(aggs, tech, analytics.Down).Quantile(0.5)
			analytics.DailyVolumeDist(aggs, tech, analytics.Up).Quantile(0.5)
			analytics.HourlyRatio(aggs, aggs, tech, 6)
		}
		for _, svc := range []classify.Service{"Netflix", "YouTube", "Facebook"} {
			analytics.ServiceSeries(aggs, svc)
			analytics.ServiceByteShare(aggs, svc)
			analytics.RTTDist(aggs, svc).Quantile(0.5)
			analytics.ServerFootprint(aggs, svc)
			analytics.DomainShares(aggs, svc)
		}
	})
	m["analytics.figure_fold_ms_per_report"] = ms(d)
	week := analytics.WindowStart(analytics.GrainWeek, day)
	var rollup *analytics.Rollup
	d = timed(func() {
		var err error
		rollup, err = analytics.BuildRollup(analytics.GrainWeek, week, []time.Time{day}, aggs)
		fail("rollup build", err)
	})
	m["analytics.rollup_build_ms_per_window"] = ms(d)
	if firstErr != nil {
		return firstErr
	}

	// core: a cold aggregate - serial, so that its self time is what is
	// left after the narrow read, fold and finish it calls - then the
	// derived-state files, the memory cache and the reload a generation
	// bump forces.
	aggDir, rollupDir := filepath.Join(dir, "agg"), filepath.Join(dir, "rollups")
	days := []time.Time{day}
	pcfg := core.Config{Seed: cfg.seed, Scale: scale, Store: v3, Workers: 1, ShardsPerDay: 1}
	d = timed(func() {
		_, err := core.New(pcfg).AggregateCols(ctx, days, analytics.ColsSubscribers)
		fail("aggregate cold", err)
	})
	m["core.aggregate_cold_ms_per_day"] = ms(d)
	m["core.aggregate_self_ms_per_day"] = max(0, ms(d)-m["flowrec.read_narrow_ns_per_record"]*n/1e6-ms(dNarrow))
	pcfg.Workers, pcfg.ShardsPerDay = 0, 0
	disk := core.NewDiskStorage(v3, aggDir).WithRollupDir(rollupDir)
	d = timed(func() { fail("save agg", disk.SaveAgg(agg)) })
	m["core.aggcache_save_ms_per_day"] = ms(d)
	d = timed(func() { a, err := disk.LoadAgg(day); fail("load agg", err); _ = a })
	m["core.aggcache_load_ms_per_day"] = ms(d)
	fail("save rollup", disk.SaveRollup(rollup))
	d = timed(func() { _, err := disk.LoadRollup(analytics.GrainWeek, week); fail("load rollup", err) })
	m["core.rollup_load_ms_per_window"] = ms(d)
	m["core.derived_bytes_per_record"] = float64(dirBytes(aggDir)+dirBytes(rollupDir)) / n
	partsDir := filepath.Join(dir, "parts")
	partsDisk := core.NewDiskStorage(v3, partsDir)
	fail("save partials", partsDisk.SavePartials(day, parts))
	d = timed(func() { _, err := partsDisk.LoadPartials(day); fail("load partials", err) })
	m["core.partials_load_ms_per_day"] = ms(d)

	pcfg.AggCacheDir, pcfg.RollupDir, pcfg.Stride = aggDir, rollupDir, cfg.size.batchStride
	warm := core.New(pcfg)
	_, err := warm.Aggregate(ctx, days)
	fail("warm", err)
	const memReps = 200
	d = timed(func() {
		for i := 0; i < memReps; i++ {
			warm.Aggregate(ctx, days)
		}
	})
	m["core.mem_hit_us_per_day"] = float64(d.Microseconds()) / memReps
	warm.BumpGeneration()
	d = timed(func() { _, err := warm.Aggregate(ctx, days); fail("reload", err) })
	m["core.reload_after_bump_ms"] = ms(d)

	// report: the experiment list over a pipeline whose days are all
	// in memory, so what is left is figure folds and rendering.
	render := func() {
		for _, name := range experimentList {
			e, _ := core.Lookup(name)
			fail("render "+name, e.Run(ctx, warm, io.Discard))
		}
	}
	render() // fills the memory cache at the union of the column sets
	m["report.render_ms_per_report"] = ms(timed(render))

	ladderIngest(ctx, cfg, dir, stream, m, fail)
	ladderServe(cfg, pcfg, day, m, fail)
	return firstErr
}

// ladderIngest prices the write path: append+fold with checkpoints
// out of the way, a checkpoint at two open-day sizes, recovery, seal.
func ladderIngest(ctx context.Context, cfg config, dir string, stream []simnet.StreamRecord, m map[string]float64, fail func(string, error)) {
	lakeDir := filepath.Join(dir, "ingest-lake")
	open := func() *ingest.Ingester {
		store, err := flowrec.OpenStoreFormat(lakeDir, flowrec.FormatV1)
		fail("open store", err)
		in, err := ingest.Open(ingest.Config{
			Storage:         core.NewDiskStorage(store, filepath.Join(lakeDir, ".agg")),
			WALDir:          filepath.Join(lakeDir, flowrec.WALDirName),
			CheckpointEvery: len(stream) + 1,
		})
		fail("open ingester", err)
		return in
	}
	in := open()
	if in == nil {
		return
	}
	// Checkpoint sizes scale with the ladder's day: a quarter of it and
	// all of it, 50k and 200k at full scale.
	small, large := min(50_000, len(stream)/4), min(200_000, len(stream))
	written := writtenBytes()
	fed := 0
	feed := func(to int) time.Duration {
		return timed(func() {
			for ; fed < to; fed++ {
				if err := in.Ingest(ctx, &stream[fed].Rec, stream[fed].At); err != nil {
					fail("ingest", err)
					return
				}
			}
		})
	}
	d := feed(small)
	m["ingest.checkpoint_ms_at_50k"] = ms(timed(func() { in.CheckpointAll(ctx) }))
	d += feed(large)
	m["ingest.append_fold_ns_per_record"] = float64(d.Nanoseconds()) / float64(large)
	m["ingest.checkpoint_ms_at_200k"] = ms(timed(func() { in.CheckpointAll(ctx) }))
	m["ingest.wal_bytes_per_record"] = float64(dirBytes(filepath.Join(lakeDir, flowrec.WALDirName))) / float64(large)
	fail("close", in.Close(ctx))
	m["ingest.recover_ms"] = ms(timed(func() { in = open() }))
	if in == nil {
		return
	}
	m["ingest.seal_ms_per_day"] = ms(timed(func() { fail("seal", in.SealAll(ctx)) }))
	fail("close", in.Close(ctx))
	m["ingest.write_bytes_per_record"] = float64(writtenBytes()-written) / float64(large)
}

// ladderServe prices the query path over the ladder lake: the handler
// through a ResponseRecorder (uncached, then cached), then the same
// cached request across a loopback socket.
func ladderServe(cfg config, pcfg core.Config, day time.Time, m map[string]float64, fail func(string, error)) {
	f := day.Format("2006-01-02")
	window := "from=" + f
	perKind := map[string][]string{
		"tier": {"/v1/figures/active?" + window, "/v1/figures/fig3?" + window, "/v1/figures/fig8?" + window},
		"dist": {"/v1/figures/fig2?" + window, "/v1/figures/fig5?" + window + "&service=Netflix", "/v1/figures/fig10?" + window},
		"scan": {"/v1/scan?" + window + "&tech=ftth"},
	}
	reps := max(1, cfg.size.ladderReqs/50)

	var queries []url.Values
	for _, list := range perKind {
		for _, u := range list {
			parsed, err := url.Parse(u)
			fail("parse url", err)
			queries = append(queries, parsed.Query())
		}
	}
	const parseReps = 2000
	d := timed(func() {
		for i := 0; i < parseReps; i++ {
			_, err := serve.ParseQuery(queries[i%len(queries)])
			fail("ParseQuery", err)
		}
	})
	m["serve.parse_ns_per_query"] = float64(d.Nanoseconds()) / parseReps

	// Uncached: the response cache off, day aggregates warm in memory
	// after the first request of each kind.
	cold := serve.New(core.New(pcfg), serve.Options{Workers: 2, CacheBytes: -1}).Handler()
	hit := func(h http.Handler, u string) {
		if rec := recorded(h, u); rec.Code != http.StatusOK {
			fail("GET "+u, fmt.Errorf("status %d", rec.Code))
		}
	}
	mean := func(h http.Handler, list []string) float64 {
		for _, u := range list {
			hit(h, u)
		}
		d := timed(func() {
			for i := 0; i < reps; i++ {
				for _, u := range list {
					hit(h, u)
				}
			}
		})
		return ms(d) / float64(reps*len(list))
	}
	m["serve.tier_figure_ms"] = mean(cold, perKind["tier"])
	m["serve.dist_figure_ms"] = mean(cold, perKind["dist"])
	m["serve.scan_summary_ms"] = mean(cold, perKind["scan"])
	fig2 := perKind["dist"][0]
	m["serve.csv_vs_json_ratio"] = mean(cold, []string{fig2 + "&format=csv"}) / mean(cold, []string{fig2})

	// Cached: the same URL over and over, recorder against socket.
	srv := serve.New(core.New(pcfg), serve.Options{Workers: 2})
	hit(srv.Handler(), fig2)
	hits := cfg.size.ladderReqs
	d = timed(func() {
		for i := 0; i < hits; i++ {
			hit(srv.Handler(), fig2)
		}
	})
	m["serve.hit_us_per_request"] = float64(d.Microseconds()) / float64(hits)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	d = timed(func() {
		for i := 0; i < hits; i++ {
			if _, err := get(client, ts.URL+fig2, 0); err != nil {
				fail("socket GET", err)
				return
			}
		}
	})
	m["serve.http_overhead_us"] = max(0, float64(d.Microseconds())/float64(hits)-m["serve.hit_us_per_request"])
}
