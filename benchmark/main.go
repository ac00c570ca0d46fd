// Command benchmark is the repository's benchmark driver: four long
// workloads over the batch, live and served paths, measured from
// outside the program under test, plus a traced run with a layer
// ladder. See README.md in this directory.
//
//	go run ./benchmark -workload batch_scan -seed 1
//	go run ./benchmark -workload serve_live -seed 1 -trace 1
//	go run ./benchmark -selfcheck 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: batch_scan, batch_rerun, live_ingest or serve_live")
		seed      = flag.Uint64("seed", 1, "seed of the simulated world and of the query-parameter draws")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = traced run: spans, layer ladder and the per-layer metrics instead of the end-to-end ones")
		scale     = flag.String("scale", "full", "fixture sizes: full, or smoke (the go-test tier, fixed op counts)")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare their medians against the bounds")
		tmp       = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "where each run makes (and removes) its private input directory")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.jsonl)")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as the tables in spec.go define it, and exit")
	)
	flag.Parse()

	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			fatal(err)
		}
		return
	}
	// Two cores, always: the workloads are sized for it, and a number
	// measured at another width is not comparable.
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("the benchmark pins GOMAXPROCS=2 and this host has %d CPU", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)
	size, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *selfcheck > 0 {
		if !selfCheck(os.Stdout, *selfcheck, *seed, *seconds, *scale, *tmp, *workload) {
			os.Exit(1)
		}
		return
	}

	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		size: size, tmpBase: *tmp, traceOut: *traceOut,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", line)
	if !res.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// summary is the machine-readable last line of a run.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) summary() summary {
	s := summary{Correct: r.correct, Attempted: r.win.attempted, Failed: r.win.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.specs() {
		s.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
	}
	return s
}

// printEnv writes the environment block: a number without its vantage
// point is not comparable.
func printEnv(out io.Writer, cfg config, fixture []kv) {
	fmt.Fprintf(out, "== %s  seed %d  scale %s  trace %v ==\n", cfg.workload, cfg.seed, cfg.size.name, cfg.trace)
	fmt.Fprintf(out, "env cpu        %s\n", cpuModel())
	fmt.Fprintf(out, "env nproc      %d\n", runtime.NumCPU())
	fmt.Fprintf(out, "env gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "env go         %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "env git        %s\n", gitRevision())
	fmt.Fprintf(out, "env note       reads come from the OS page cache and HTTP crosses loopback: these are this sandbox's numbers, not a device's\n")
	for _, f := range fixture {
		fmt.Fprintf(out, "fixture %-26s %d\n", f.key, f.value)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitRevision reads the commit the binary was built from. The go tool
// stamps it when it builds inside a git checkout; the comparison
// driver's checkouts are not one.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}
