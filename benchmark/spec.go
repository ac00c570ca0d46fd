package main

import (
	"time"

	"repro/internal/simnet"
)

// The tables in this file are the benchmark's contract. BENCHMARK.json
// at the repository root is generated from them (go run ./benchmark
// -print-spec) and TestSpecMatchesBenchmarkJSON holds the two equal.

// runSeconds is the measured window of one run. The comparison driver
// makes 4 + 22×4 = 92 runs inside 3,420 s, set-up, output checks and
// two builds included, so a run may cost about 35 s all in; 20 s of
// window leaves room for up to 8 s of set-up and the checks.
const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"batch_scan", "cold batch report over a paper-scale lake: flowrec inflate/decode, classify and the analytics fold do the work; core's derived caches, ingest and serve do nothing"},
	{"batch_rerun", "the same report from the agg cache and rollups: core cache loads and analytics merges do the work and flowrec must decode nothing - the bypass workload for every decode change"},
	{"live_ingest", "full-speed stream into ingest with edged's defaults: flowrec encoding, WAL, growing checkpoints, a mid-stream seal and background compaction - the read path's code run the other way"},
	{"serve_live", "two paced dashboard clients over loopback while a co-hosted ingester bumps the lake generation every second: serve parse/cache/encode and core reload-after-bump under write contention"},
}

// metricSpec is one metric of either list. Per-layer metrics are
// never gated: their bound is 0 and stays out of the JSON.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the three paths sees. Every workload
// reports every one of them (the comparison driver requires it): for
// the batch workloads latency_p90_ms is the p90 over report runs, and
// for serve_live disk_bytes_per_record covers the whole shared tree.
// Each bound is about twice the widest ten-seed interquartile spread
// any workload showed on the sandbox (README.md has the record),
// capped at the driver's 0.25.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_work", "us", "lower", 0.20},
	{"disk_bytes_per_record", "B", "lower", 0.02},
}

// perLayer lists the traced run's metrics: the layer ladder (each
// public function called alone over one pinned day at ladderScale),
// then the figures read off the traced window itself. README.md maps
// each to the end-to-end metric it should move.
var perLayer = []metricSpec{
	// simnet
	{"simnet.emit_ns_per_record", "ns", "lower", 0},
	{"simnet.stream_ns_per_record", "ns", "lower", 0},
	// flowrec
	{"flowrec.encode_v1_ns_per_record", "ns", "lower", 0},
	{"flowrec.encode_v3_ns_per_record", "ns", "lower", 0},
	{"flowrec.compact_ms_per_day", "ms", "lower", 0},
	{"flowrec.read_full_ns_per_record", "ns", "lower", 0},
	{"flowrec.read_narrow_ns_per_record", "ns", "lower", 0},
	{"flowrec.read_pushdown_ns_per_record", "ns", "lower", 0},
	{"flowrec.inflated_bytes_per_record", "B", "lower", 0},
	{"flowrec.decoded_bytes_per_record", "B", "lower", 0},
	{"flowrec.blocks_skipped_share", "%", "higher", 0},
	{"flowrec.lake_bytes_per_record", "B", "lower", 0},
	// classify
	{"classify.lookup_ns_per_record", "ns", "lower", 0},
	// analytics
	{"analytics.fold_ns_per_record", "ns", "lower", 0},
	{"analytics.fold_narrow_ns_per_record", "ns", "lower", 0},
	{"analytics.shard_merge_ms_per_day", "ms", "lower", 0},
	{"analytics.finish_ms_per_day", "ms", "lower", 0},
	{"analytics.figure_fold_ms_per_report", "ms", "lower", 0},
	{"analytics.rollup_build_ms_per_window", "ms", "lower", 0},
	// core
	{"core.aggregate_cold_ms_per_day", "ms", "lower", 0},
	{"core.aggregate_self_ms_per_day", "ms", "lower", 0},
	{"core.aggcache_load_ms_per_day", "ms", "lower", 0},
	{"core.aggcache_save_ms_per_day", "ms", "lower", 0},
	{"core.partials_load_ms_per_day", "ms", "lower", 0},
	{"core.rollup_load_ms_per_window", "ms", "lower", 0},
	{"core.derived_bytes_per_record", "B", "lower", 0},
	{"core.mem_hit_us_per_day", "us", "lower", 0},
	{"core.reload_after_bump_ms", "ms", "lower", 0},
	// report
	{"report.render_ms_per_report", "ms", "lower", 0},
	// ingest
	{"ingest.append_fold_ns_per_record", "ns", "lower", 0},
	{"ingest.checkpoint_ms_at_50k", "ms", "lower", 0},
	{"ingest.checkpoint_ms_at_200k", "ms", "lower", 0},
	{"ingest.seal_ms_per_day", "ms", "lower", 0},
	{"ingest.recover_ms", "ms", "lower", 0},
	{"ingest.wal_bytes_per_record", "B", "lower", 0},
	{"ingest.write_bytes_per_record", "B", "lower", 0},
	// serve
	{"serve.parse_ns_per_query", "ns", "lower", 0},
	{"serve.hit_us_per_request", "us", "lower", 0},
	{"serve.tier_figure_ms", "ms", "lower", 0},
	{"serve.dist_figure_ms", "ms", "lower", 0},
	{"serve.scan_summary_ms", "ms", "lower", 0},
	{"serve.csv_vs_json_ratio", "ratio", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},

	// Read off the traced window: registry deltas and span self times.
	// A layer the workload leaves idle reads 0 - that is the bypass
	// prediction made visible (flowrec.window_self_ms on batch_rerun).
	{"core.disk_hit_share", "%", "higher", 0},
	{"core.rollup_hit_share", "%", "higher", 0},
	{"core.hot_day_serve_share", "%", "higher", 0},
	{"serve.cache_hit_share", "%", "higher", 0},
	{"serve.shed_share", "%", "lower", 0},
	{"serve.response_bytes_per_request", "B", "lower", 0},
	{"report.window_self_ms", "ms", "lower", 0},
	{"core.window_self_ms", "ms", "lower", 0},
	{"flowrec.window_self_ms", "ms", "lower", 0},
	{"ingest.window_self_ms", "ms", "lower", 0},
	{"serve.window_self_ms", "ms", "lower", 0},
	{"driver.window_self_ms", "ms", "lower", 0},
	{"driver.peak_rss_mb", "MB", "lower", 0},
	{"driver.alloc_bytes_per_work", "B", "lower", 0},
	{"driver.gc_cpu_share", "%", "lower", 0},
	{"driver.sched_lag_p99_ms", "ms", "lower", 0},
	{"driver.trace_overhead_share", "%", "lower", 0},
}

// benchmarkJSON is the exact shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// sizing fixes every population and pace of a scale. The full figures
// were measured on a 2-core sandbox and frozen; README.md records how
// they were chosen and where they depart from paper scale.
type sizing struct {
	name string

	// Batch workloads: a v3 lake of batchDays at batchScale, reported
	// with Stride batchStride (both lake days fall on the stride grid
	// from simnet.SpanStart, so span figures and April figures all
	// find data). batchOps > 0 fixes the op count instead of the clock.
	batchScale  simnet.Scale
	batchDays   []time.Time
	batchStride int
	batchOps    int

	// live_ingest: the stream of liveDays at liveScale, buffered in
	// set-up, fed in cycles of checkpointEvery records. liveWhole
	// feeds the whole stream instead of stopping at the clock.
	liveScale       simnet.Scale
	liveDays        []time.Time
	checkpointEvery int
	liveWhole       bool

	// serve_live: sealed days + one hot day, an ingester fed
	// ingestChunk records every ingestTick, and two clients that each
	// start a page every pagePeriod (the second pageStagger later).
	serveScale  simnet.Scale
	serveSealed []time.Time
	serveHot    time.Time
	ingestChunk int
	ingestTick  time.Duration
	pagePeriod  time.Duration
	pageStagger time.Duration
	gatePace    bool // fail the run when a page starts a period late

	// The layer ladder runs at its own population so a traced run's
	// ~45 single-function passes finish in seconds.
	ladderScale simnet.Scale
	ladderReqs  int
}

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

var serveSealedDays = []time.Time{day(2016, 4, 1), day(2016, 4, 8), day(2016, 4, 15), day(2016, 4, 22)}

var scales = map[string]sizing{
	"full": {
		name:        "full",
		batchScale:  simnet.Scale{ADSL: 10000, FTTH: 5000},
		batchDays:   []time.Time{day(2014, 4, 1), day(2017, 4, 1)},
		batchStride: 137,

		liveScale:       simnet.Scale{ADSL: 2500, FTTH: 1250},
		liveDays:        []time.Time{day(2016, 4, 29), day(2016, 4, 30)},
		checkpointEvery: 4096,

		serveScale:  simnet.Scale{ADSL: 2000, FTTH: 1000},
		serveSealed: serveSealedDays,
		serveHot:    day(2016, 4, 29),
		ingestChunk: 1024,
		ingestTick:  250 * time.Millisecond,
		pagePeriod:  400 * time.Millisecond,
		pageStagger: 200 * time.Millisecond,
		gatePace:    true,

		ladderScale: simnet.Scale{ADSL: 1000, FTTH: 500},
		ladderReqs:  500,
	},
	// smoke is the go-test tier: every count is fixed so two runs of
	// one seed repeat exactly.
	"smoke": {
		name:        "smoke",
		batchScale:  simnet.Scale{ADSL: 40, FTTH: 20},
		batchDays:   []time.Time{day(2014, 4, 1), day(2017, 4, 1)},
		batchStride: 137,
		batchOps:    2,

		liveScale:       simnet.Scale{ADSL: 40, FTTH: 20},
		liveDays:        []time.Time{day(2016, 4, 29), day(2016, 4, 30)},
		checkpointEvery: 512,
		liveWhole:       true,

		serveScale:  simnet.Scale{ADSL: 40, FTTH: 20},
		serveSealed: serveSealedDays,
		serveHot:    day(2016, 4, 29),
		ingestChunk: 128,
		ingestTick:  50 * time.Millisecond,
		pagePeriod:  100 * time.Millisecond,
		pageStagger: 50 * time.Millisecond,

		ladderScale: simnet.Scale{ADSL: 40, FTTH: 20},
		ladderReqs:  40,
	},
}

// experimentList is the report both batch workloads run, in registry
// order. table1, active and fig9 are left out: the lake holds none of
// their windows.
var experimentList = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11"}
