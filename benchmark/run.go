package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizing
	tmpBase  string // private temp dirs are made here
	traceOut string // span file; empty derives one under tmpBase's parent
}

// check is one output check: what it proves, and whether it held.
type check struct {
	name   string
	ok     bool
	detail string
}

// window is what a workload hands back: its set-up time, the measured
// window, and the output checks made after it.
type window struct {
	setup time.Duration

	wall      time.Duration
	cpu       time.Duration
	delta     counters // registry movement across the window
	allocated uint64
	gcCPU     time.Duration

	attempted, failed int
	opMs              []float64 // latency of each successful op
	opTraced          []bool    // traced run: was recording on for that op
	lagMs             []float64 // open-loop workloads: how late each op started

	work     float64 // work units done in the window (cpu_us_per_work's base)
	workPerS float64

	records   uint64 // lake records the disk figure is per
	diskBytes int64

	responseBytes int64  // serve_live: body bytes the clients read
	reportHash    string // batch workloads: the hash every op produced

	fixture []kv // environment block: lines, days, records, bytes
	counts  []kv // counts that must repeat exactly for one seed and scale
	checks  []check
}

type kv struct {
	key   string
	value int64
}

func (w *window) check(name string, ok bool, format string, args ...any) {
	w.checks = append(w.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// op records one op: a failed op counts as attempted and misses every
// latency figure.
func (w *window) op(d time.Duration, err error, traced bool) {
	w.attempted++
	if err != nil {
		w.failed++
		w.check(fmt.Sprintf("op %d", w.attempted), false, "%v", err)
		return
	}
	w.opMs = append(w.opMs, ms(d))
	w.opTraced = append(w.opTraced, traced)
}

// bracket captures the process-wide readings a window is a delta of.
type bracket struct {
	t0  time.Time
	cpu time.Duration
	c   counters
	rs  runtimeStats
}

func beginWindow() bracket {
	return bracket{t0: time.Now(), cpu: cpuTime(), c: snapshotCounters(), rs: readRuntimeStats()}
}

func (b bracket) end(w *window) {
	w.wall = time.Since(b.t0)
	w.cpu = cpuTime() - b.cpu
	w.delta = snapshotCounters().since(b.c)
	rs := readRuntimeStats()
	w.allocated = rs.alloc - b.rs.alloc
	w.gcCPU = rs.gcCPU - b.rs.gcCPU
}

// result is one run, ready to print.
type result struct {
	cfg       config
	correct   bool
	metrics   map[string]float64
	win       *window
	traceFile string
}

// specs lists the metrics this run reports: the end-to-end set
// untraced, the per-layer set traced.
func (r *result) specs() []metricSpec {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

var workloads = map[string]func(cfg config, root string, tr *tracer) (*window, error){
	"batch_scan":  runBatchScan,
	"batch_rerun": runBatchRerun,
	"live_ingest": runLiveIngest,
	"serve_live":  runServeLive,
}

// runWorkload runs one workload in a private temp dir and derives its
// metrics: the end-to-end set for an untraced run, the per-layer set
// for a traced one.
func runWorkload(cfg config) (*result, error) {
	fn := workloads[cfg.workload]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmpBase, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.tmpBase, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	w, err := fn(cfg, root, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res := &result{cfg: cfg, win: w, metrics: map[string]float64{}}
	w.check("ops", w.failed == 0 && w.attempted > 0, "%d attempted, %d failed", w.attempted, w.failed)

	if !cfg.trace {
		res.metrics["setup_s"] = w.setup.Seconds()
		res.metrics["work_per_s"] = w.workPerS
		res.metrics["latency_p50_ms"] = median(w.opMs)
		res.metrics["latency_p90_ms"] = quantile(w.opMs, 0.90)
		res.metrics["cpu_us_per_work"] = float64(w.cpu.Microseconds()) / w.work
		res.metrics["disk_bytes_per_record"] = float64(w.diskBytes) / float64(w.records)
	} else {
		tr.enable(true)
		if err := runLadder(cfg, filepath.Join(root, "ladder"), res.metrics); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		windowMetrics(w, tr, res.metrics)
		res.traceFile = cfg.traceOut
		if res.traceFile == "" {
			res.traceFile = filepath.Join(filepath.Dir(cfg.tmpBase), "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		}
		if err := tr.writeFile(res.traceFile); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		// Every per-layer metric is present; all but the overhead share
		// (a difference of two medians) are non-negative.
		var bad []string
		for _, m := range perLayer {
			if v, ok := res.metrics[m.Name]; !ok || v < 0 && m.Name != "driver.trace_overhead_share" {
				bad = append(bad, m.Name)
			}
		}
		w.check("per-layer metrics", len(bad) == 0, "%d present and non-negative (bad: %v)", len(perLayer)-len(bad), bad)
	}

	res.correct = true
	for _, c := range w.checks {
		res.correct = res.correct && c.ok
	}
	return res, nil
}

// windowMetrics derives the per-layer figures that are read off the
// traced window rather than the ladder.
func windowMetrics(w *window, tr *tracer, m map[string]float64) {
	d := w.delta
	// Of the days that had data, the share answered from derived state
	// instead of a scan (days the lake lacks are neither).
	answered := d["aggcache.disk_hits"] + d["store.days_read"]
	m["core.disk_hit_share"] = share(d["aggcache.disk_hits"], answered)
	m["core.hot_day_serve_share"] = share(d["pipeline.hot_day_serves"], answered)
	m["core.rollup_hit_share"] = share(d["rollup.hits"], d["rollup.hits"]+d["rollup.misses"])
	lookups := d["serve.cache_hits"] + d["serve.cache_misses"]
	m["serve.cache_hit_share"] = share(d["serve.cache_hits"], lookups)
	m["serve.shed_share"] = share(d["serve.shed"], d["serve.requests"])
	m["serve.response_bytes_per_request"] = 0
	if d["serve.requests"] > 0 {
		m["serve.response_bytes_per_request"] = float64(w.responseBytes) / float64(d["serve.requests"])
	}

	self := tr.selfTimes()
	for _, layer := range []string{"report", "core", "flowrec", "ingest", "serve", "driver"} {
		m[layer+".window_self_ms"] = ms(self[layer])
	}
	m["driver.peak_rss_mb"] = peakRSSMB()
	m["driver.alloc_bytes_per_work"] = float64(w.allocated) / w.work
	m["driver.gc_cpu_share"] = 100 * float64(w.gcCPU) / float64(w.wall*time.Duration(runtime.GOMAXPROCS(0)))
	m["driver.sched_lag_p99_ms"] = quantile(w.lagMs, 0.99)

	// Recording alternated between ops, so the two medians come from
	// the same window, inputs and process.
	var traced, untraced []float64
	for i, v := range w.opMs {
		if w.opTraced[i] {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	m["driver.trace_overhead_share"] = 0
	if base := median(untraced); base > 0 && len(traced) > 0 {
		m["driver.trace_overhead_share"] = 100 * (median(traced)/base - 1)
	}
}

// print writes the human-readable report: environment, fixture,
// checks, every metric by name with its unit.
func (r *result) print(out io.Writer) {
	w := r.win
	printEnv(out, r.cfg, w.fixture)
	fmt.Fprintf(out, "\nset-up %.2fs, window %.2fs, %d ops attempted, %d failed\n",
		w.setup.Seconds(), w.wall.Seconds(), w.attempted, w.failed)
	for _, c := range w.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "check %s %-22s %s\n", status, c.name, c.detail)
	}
	if r.traceFile != "" {
		fmt.Fprintf(out, "spans written to %s\n", r.traceFile)
	}
	fmt.Fprintln(out)
	for _, m := range r.specs() {
		fmt.Fprintf(out, "metric %-40s %16.4f %s\n", m.Name, r.metrics[m.Name], m.Unit)
	}
}
