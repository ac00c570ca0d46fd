// Package cli is the one flag surface of the binaries: every flag two
// or more of them share is declared here, once, and turned into a
// core.Config by one builder — so the -scale switch, the rules-file
// loader, the -faults parser, the profile/metrics teardown and the
// exit-code convention exist in one tested place and each main is a
// list of its own flags plus calls into internal packages.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Flags holds the parsed values of the shared flags. Register binds
// only the ones a binary's surface lists; the rest keep the zero value
// (Scale keeps "default"), which Config reads as "not asked for".
type Flags struct {
	bin string

	Seed                    uint64
	Stride, Workers, Shards int
	Scale, Store, Rules     string
	AggCache, Rollup        string
	MemLimit, Faults        string
	Sketch, Degrade         bool
	DayTimeout              time.Duration

	Stats                  bool
	CPUProfile, MemProfile string
}

// spec is one binary's view of a shared flag: its default (whose Go
// type must be the flag's) and its help text.
type spec struct {
	name  string
	def   any
	usage string
}

// surfaces lists, per binary, the shared flags it exposes. Names are
// shared; defaults and help texts are each binary's own (a stride is a
// sampling stride to edgereport and a generation stride to edgegen).
var surfaces = map[string][]spec{
	"edgereport": {
		{"seed", uint64(1), "world seed (same seed, same dataset)"},
		{"stride", 7, "day sampling stride for full-span experiments"},
		{"scale", "default", "population scale: small, default, large"},
		{"workers", 0, "parallel aggregation workers (0 = NumCPU)"},
		{"shards", 0, "per-day block-decode workers; results are byte-identical for any value (0 = GOMAXPROCS, 1 = serial decode)"},
		{"store", "", "read records from this flow store instead of simulating (v1/v3 day files auto-detected, experiments decode only the columns they declare)"},
		{"rules", "", "classification rules file (default: built-in list)"},
		{"aggcache", "", "persist per-day aggregates to this directory across runs"},
		{"rollup", "", "persist week/month/year rollups to this directory; long-span experiments answer from the coarsest tier that fits"},
		{"sketch", false, "carry mergeable sketches (HLL clients/server IPs, SpaceSaving services/domains, t-digest RTT) in aggregates and rollups"},
		{"degrade", true, "report failed days and continue instead of aborting the run"},
		{"day-timeout", time.Duration(0), "deadline per aggregated day, all retries included (0 = none)"},
		{"memlimit", "", `stage-one memory budget, e.g. "512M" (0 = unbounded; over budget, aggregation spills partials to disk and external-merges them)`},
		{"faults", "", `fault-injection spec, e.g. "readday:p=0.01,transient" (see README)`},
		{"stats", false, "print the pipeline metrics table after the run"},
		{"cpuprofile", "", "write a CPU profile to this file"},
		{"memprofile", "", "write a heap profile to this file at exit"},
	},
	"edgeserve": {
		{"seed", uint64(1), "world seed for simulation-fed serving"},
		{"stride", 7, "default day sampling stride for full-span figures"},
		{"scale", "default", "population scale: small, default, large"},
		{"workers", 0, "pipeline aggregation workers per query (0 = NumCPU)"},
		{"shards", 0, "per-day block-decode workers; results are byte-identical for any value (0 = GOMAXPROCS, 1 = serial decode)"},
		{"store", "", "serve this flow store (v1/v3 day files auto-detected)"},
		{"rules", "", "classification rules file (default: built-in list)"},
		{"aggcache", "", "per-day aggregate cache directory (shared with edged for hot-day serving)"},
		{"rollup", "", "rollup directory; coarse queries answer from the coarsest tier that fits"},
		{"sketch", false, "carry mergeable sketches in aggregates and rollups"},
		{"degrade", true, "serve partial figures past damaged days instead of failing the query"},
		{"day-timeout", time.Duration(0), "deadline per aggregated day inside a query (0 = none)"},
		{"memlimit", "", `stage-one memory budget per query, e.g. "512M" (0 = unbounded)`},
		{"faults", "", `fault-injection spec, e.g. "readday:p=0.01,transient" (see README)`},
		{"stats", false, "print the metrics table on shutdown"},
		{"cpuprofile", "", "write a CPU profile to this file"},
		{"memprofile", "", "write a heap profile to this file at exit"},
	},
	"edgegen": {
		{"seed", uint64(1), "world seed"},
		{"stride", 1, "generate every Nth day"},
		{"shards", 0, "per-day block-decode workers; results are byte-identical for any value (0 = GOMAXPROCS, 1 = serial decode)"},
		{"rollup", "", "after generating, prewarm week/month/year rollups in this directory"},
		{"sketch", false, "carry mergeable sketches in the prewarmed aggregates and rollups"},
		{"memlimit", "", `stage-one memory budget for the -agg prewarm, e.g. "512M" (0 = unbounded; over budget, aggregation spills partials to disk)`},
		{"faults", "", `fault-injection spec, e.g. "writeday:p=0.1,torn" (see README)`},
		{"stats", false, "print the pipeline metrics table after the run"},
		{"cpuprofile", "", "write a CPU profile to this file"},
		{"memprofile", "", "write a heap profile to this file at exit"},
	},
	"edgeprobe": {
		{"seed", uint64(1), "world seed"},
		{"shards", 1, "parallel probe workers per day (flow-hash packet fan-out); record order in the store varies with the count, record content does not"},
		{"rollup", "", "after the capture, prewarm week/month/year rollups over the store into this directory"},
		{"sketch", false, "carry mergeable sketches in the prewarmed rollups"},
		{"faults", "", `fault-injection spec for the output store, e.g. "writeday:p=0.1,transient" (see README)`},
		{"stats", false, "print the pipeline metrics table after the run"},
		{"cpuprofile", "", "write a CPU profile to this file"},
		{"memprofile", "", "write a heap profile to this file at exit"},
	},
	"edgequery": {
		{"store", "", "flow store directory (required)"},
		{"rules", "", "classification rules file (default: built-in list)"},
		{"shards", 1, "parallel block-decode workers per day; summaries and CSV (row order included) are identical for any value"},
		{"rollup", "", "answer from week/month/year rollups in this directory (built on demand) instead of scanning records; prints one row per window"},
		{"sketch", false, "with -rollup: carry mergeable sketches and print per-window distinct-client estimates and top services"},
		{"faults", "", `fault-injection spec, e.g. "readday:p=0.2,transient" (see README)`},
		{"stats", false, "print the pipeline metrics table after the run"},
	},
	"edged": {
		{"seed", uint64(1), "world seed"},
		{"stride", 1, "ingest every Nth day of the range"},
		{"faults", "", `fault-injection spec, e.g. "checkpoint:p=0.1,transient;seal:p=0.05,transient" (see README)`},
		{"stats", false, "print the metrics table on exit"},
	},
	"edgeload": {
		{"seed", uint64(1), "rotates the deterministic query sequence's starting offset"},
	},
}

// scales are the -scale populations; "default" leaves it to simnet.
var scales = map[string]simnet.Scale{
	"small": {ADSL: 60, FTTH: 30}, "default": {}, "large": {ADSL: 1000, FTTH: 500},
}

// Register declares bin's shared flags on fs and returns where their
// values land after fs.Parse. bin must be a key of the surface table.
func Register(fs *flag.FlagSet, bin string) *Flags {
	specs, ok := surfaces[bin]
	if !ok {
		panic("cli: no flag surface for " + bin)
	}
	f := &Flags{bin: bin, Scale: "default"}
	vars := map[string]any{
		"seed": &f.Seed, "stride": &f.Stride, "scale": &f.Scale,
		"workers": &f.Workers, "shards": &f.Shards, "store": &f.Store,
		"rules": &f.Rules, "aggcache": &f.AggCache, "rollup": &f.Rollup,
		"sketch": &f.Sketch, "degrade": &f.Degrade, "day-timeout": &f.DayTimeout,
		"memlimit": &f.MemLimit, "faults": &f.Faults, "stats": &f.Stats,
		"cpuprofile": &f.CPUProfile, "memprofile": &f.MemProfile,
	}
	for _, s := range specs {
		switch p := vars[s.name].(type) {
		case *uint64:
			fs.Uint64Var(p, s.name, s.def.(uint64), s.usage)
		case *int:
			fs.IntVar(p, s.name, s.def.(int), s.usage)
		case *string:
			fs.StringVar(p, s.name, s.def.(string), s.usage)
		case *bool:
			fs.BoolVar(p, s.name, s.def.(bool), s.usage)
		case *time.Duration:
			fs.DurationVar(p, s.name, s.def.(time.Duration), s.usage)
		default:
			panic("cli: surface of " + bin + " names unknown flag " + s.name)
		}
	}
	return f
}

// Config builds the pipeline configuration the parsed flags describe:
// it opens -store, loads -rules, parses -faults and -memlimit and maps
// -scale. A bad flag value comes back as a usage error (exit status 2
// through Fatal), a store or rules file that cannot be read as a plain
// one.
func (f *Flags) Config() (core.Config, error) {
	cfg := core.Config{
		Seed: f.Seed, Stride: f.Stride, Workers: f.Workers, ShardsPerDay: f.Shards,
		AggCacheDir: f.AggCache, RollupDir: f.Rollup, Sketch: f.Sketch,
		Degrade: f.Degrade, DayTimeout: f.DayTimeout,
	}
	var err error
	var ok bool
	if cfg.MemBudget, err = core.ParseMemLimit(f.MemLimit); err != nil {
		return cfg, usageError{err}
	}
	if cfg.Scale, ok = scales[f.Scale]; !ok {
		return cfg, Usagef("unknown scale %q", f.Scale)
	}
	if f.Faults != "" {
		if cfg.Faults, err = faultinject.Parse(f.Faults); err != nil {
			return cfg, usageError{err}
		}
	}
	if f.Store != "" {
		if cfg.Store, err = flowrec.OpenStore(f.Store); err != nil {
			return cfg, err
		}
	}
	if f.Rules != "" {
		if cfg.Classifier, err = loadRules(f.Rules); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// loadRules reads a curated domain→service rules file.
func loadRules(path string) (*classify.Classifier, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	rules, err := classify.ParseRules(file)
	if err != nil {
		return nil, err
	}
	return classify.New(rules)
}

// Start brings up what the process flags select and returns the root
// context, cancelled by SIGINT/SIGTERM, with the teardown to defer in
// main. The CPU profile streams to its file from here on; the teardown
// prints the -stats metrics table, stops the CPU profile, writes the
// heap profile (after a final GC, so it shows live-heap shape rather
// than collection timing) and releases the signal handler. A profile
// file that cannot be created is fatal. Fatal exits skip the teardown
// by design — a failed run prints no metrics table.
func (f *Flags) Start() (context.Context, func()) {
	var cpu *os.File
	if f.CPUProfile != "" {
		var err error
		if cpu, err = os.Create(f.CPUProfile); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			f.Fatal(fmt.Errorf("cpu profile: %w", err))
		}
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, func() {
		if f.Stats {
			title := "pipeline"
			if f.bin == "edged" {
				title = "ingest"
			}
			fmt.Printf("\n== %s metrics ==\n", title)
			metrics.WriteText(os.Stdout)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if f.MemProfile != "" {
			if err := writeHeapProfile(f.MemProfile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: mem profile: %v\n", f.bin, err)
			}
		}
		stopSig()
	}
}

func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	runtime.GC() // up-to-date allocation data
	return pprof.WriteHeapProfile(file)
}

// usageError marks an error the command line caused.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Usagef builds a usage error: Fatal exits 2 on it, like the flag
// package does for a flag it cannot parse.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// ExitCode is the process status for a fatal err: 2 when the command
// line caused it, 1 otherwise.
func ExitCode(err error) int {
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// Fatal prints "<binary>: err" to stderr and exits with ExitCode(err).
func (f *Flags) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.bin, err)
	os.Exit(ExitCode(err))
}

// Span parses a -from/-to flag pair. An empty from means defFrom; an
// empty to means defTo, or the start day when defTo is zero.
func Span(from, to string, defFrom, defTo time.Time) (start, end time.Time, err error) {
	if start, err = parseDay(from, defFrom); err != nil {
		return start, end, err
	}
	if defTo.IsZero() {
		defTo = start
	}
	end, err = parseDay(to, defTo)
	return start, end, err
}

// parseDay parses a YYYY-MM-DD flag value as a UTC day, def when empty.
func parseDay(s string, def time.Time) (time.Time, error) {
	if s == "" {
		return def, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, Usagef("bad date %q: %v", s, err)
	}
	return t.UTC(), nil
}
