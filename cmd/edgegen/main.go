// Command edgegen materialises a slice of the simulated five-year
// dataset into an on-disk flow store (day-partitioned, gzip-compressed
// binary logs), which edgereport can then analyse with -store.
//
// Usage:
//
//	edgegen -out /data/lake -from 2014-04-01 -to 2014-04-30
//	edgegen -out /data/lake -stride 7            # whole span, weekly
//	edgegen -out /data/lake -from 2016-11-01 -to 2016-11-30 -csv dump.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/scan"
	"repro/internal/simnet"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edgegen")
	var (
		out     = flag.String("out", "", "store directory (required)")
		from    = flag.String("from", "", "first day (YYYY-MM-DD, default span start)")
		to      = flag.String("to", "", "last day (YYYY-MM-DD, default span end)")
		adsl    = flag.Int("adsl", 0, "ADSL subscriber count (0 = default)")
		ftth    = flag.Int("ftth", 0, "FTTH subscriber count (0 = default)")
		csv     = flag.String("csv", "", "also dump the first generated day as CSV to this file")
		format  = flag.String("format", "v1", "day-file format: v1 (row codec) or v3 (columnar, per-block compression); readers auto-detect")
		compact = flag.Bool("compact", false, "skip generation; recompact the existing store's days into -format (parallel, atomic per day)")
		aggDir  = flag.String("agg", "", "after generating, prewarm a per-day aggregate cache in this directory")
	)
	flag.Parse()
	ctx, stop := sf.Start()
	defer stop()
	if *out == "" {
		sf.Fatal(cli.Usagef("-out is required"))
	}
	start, end, err := cli.Span(*from, *to, simnet.SpanStart, simnet.SpanEnd)
	if err != nil {
		sf.Fatal(err)
	}
	days := core.RangeDays(start, end, sf.Stride)

	sfmt, err := flowrec.ParseFormat(*format)
	if err != nil {
		sf.Fatal(cli.Usagef("%v", err))
	}
	// warm is the prewarm pipeline's configuration: what the shared
	// flags describe, over the store this run writes.
	warm, err := sf.Config()
	if err != nil {
		sf.Fatal(err)
	}
	store, err := flowrec.OpenStoreFormat(*out, sfmt)
	if err != nil {
		sf.Fatal(err)
	}

	if *compact {
		// Recompaction path: rewrite the lake's sealed days into the
		// requested format in place and exit. No generation, no prewarm.
		have, err := store.Days()
		if err != nil {
			sf.Fatal(err)
		}
		var pick []time.Time
		for _, d := range have {
			if !d.Before(start) && !d.After(end) {
				pick = append(pick, d)
			}
		}
		t0 := time.Now()
		nd, nr, err := store.CompactStore(pick, sfmt, 0)
		fmt.Printf("compacted %d days (%d records) in %s to %s in %v\n",
			nd, nr, *out, sfmt, time.Since(t0).Round(time.Millisecond))
		if err != nil {
			sf.Fatal(fmt.Errorf("compact: %w", err))
		}
		return
	}
	warm.Scale = simnet.Scale{ADSL: *adsl, FTTH: *ftth}
	// The write side carries the cache directories so regenerating a day
	// drops its stale aggregate and the stale rollup windows covering it
	// — the prewarm below would otherwise accept them (a cached agg has
	// no freshness signal, and a stale rollup's manifest still matches).
	var dst core.Storage = core.NewDiskStorage(store, *aggDir).WithRollupDir(warm.RollupDir)
	if warm.Faults != nil {
		dst = faultinject.Wrap(dst, warm.Faults)
	}
	// The generation pipeline carries the world and the emission-side
	// faults (outage, drop) and no store wiring.
	p := core.New(core.Config{Seed: warm.Seed, Scale: warm.Scale, Faults: warm.Faults})

	t0 := time.Now()
	n, err := p.GenerateStore(ctx, dst, days)
	if err != nil {
		sf.Fatal(err)
	}
	fmt.Printf("wrote %d flow records across %d days to %s in %v\n",
		n, len(days), *out, time.Since(t0).Round(time.Millisecond))

	if *csv != "" && len(days) > 0 {
		// The dump is the scan engine's unfiltered export of one day.
		f, err := os.Create(*csv)
		if err == nil {
			_, err = scan.Run(ctx, store, p.Cls, scan.Query{Days: days[:1], CSV: f})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			sf.Fatal(fmt.Errorf("csv: %w", err))
		}
		fmt.Printf("CSV dump of %s written to %s\n", days[0].Format("2006-01-02"), *csv)
	}

	// Prewarm: run stage one over the freshly written lake so the first
	// edgereport against it starts from cached aggregates. A second
	// pipeline reads what the first wrote.
	if *aggDir != "" || warm.RollupDir != "" {
		warm.Store = store
		warm.AggCacheDir = *aggDir
		warm.Faults = nil // chaos is a generation-side concern; the prewarm reads clean
		if err := prewarm(ctx, core.New(warm), days, *aggDir, warm.RollupDir); err != nil {
			sf.Fatal(err)
		}
	}
}

// prewarm fills the aggregate cache and the rollup tier, whichever
// were asked for, from the days just written.
func prewarm(ctx context.Context, p *core.Pipeline, days []time.Time, aggDir, rollupDir string) error {
	if aggDir != "" {
		t0 := time.Now()
		aggs, err := p.Aggregate(ctx, days)
		if err != nil {
			return fmt.Errorf("agg prewarm: %w", err)
		}
		fmt.Printf("prewarmed %d day aggregates into %s in %v\n",
			len(aggs), aggDir, time.Since(t0).Round(time.Millisecond))
	}
	if rollupDir != "" {
		t0 := time.Now()
		nw, err := p.BuildRollups(ctx, days)
		if err != nil {
			return fmt.Errorf("rollup prewarm: %w", err)
		}
		fmt.Printf("prewarmed %d rollup windows into %s in %v\n",
			nw, rollupDir, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
