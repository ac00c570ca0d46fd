// Command edged is the live half of the reproduction: a long-running
// ingest daemon that consumes the simulated probe's continuous flow
// stream, folds each record into checkpointed live aggregates (served
// to queries as "today so far"), seals finished days into the lake at
// rollover, and compacts sealed days to the columnar format in the
// background. Kill it at any point and restart it over the same
// directories: it recovers from its write-ahead log and resume
// cursor, losing nothing and double-counting nothing.
//
// Usage:
//
//	edged -out /data/lake -from 2014-04-01 -to 2014-04-30
//	edged -out /data/lake -stride 7 -checkpoint-every 2048
//	edged -out /data/lake -faults "seal:p=0.2,transient" -stats
//
// While edged runs, `edgereport -store <out> -aggcache <out>/.agg`
// answers for sealed days from the lake and for the live day from the
// latest checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/ingest"
	"repro/internal/retry"
	"repro/internal/simnet"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edged")
	var (
		out       = flag.String("out", "", "lake directory (required); sealed days land here")
		aggDir    = flag.String("agg", "", "checkpoint/aggregate cache directory (default <out>/.agg)")
		walDir    = flag.String("wal", "", "write-ahead log directory (default <out>/.wal)")
		from      = flag.String("from", "", "first day (YYYY-MM-DD, default span start)")
		to        = flag.String("to", "", "last day (YYYY-MM-DD, default span end)")
		adsl      = flag.Int("adsl", 0, "ADSL subscriber count (0 = default)")
		ftth      = flag.Int("ftth", 0, "FTTH subscriber count (0 = default)")
		ckEvery   = flag.Int("checkpoint-every", 4096, "checkpoint a day after this many new records")
		ckIntv    = flag.Duration("checkpoint-interval", 30*time.Second, "also checkpoint all open days this often (wall clock; 0 disables)")
		grace     = flag.Duration("grace", 8*time.Hour, "how long past midnight a day stays open for late flows (stream clock)")
		sealEmpty = flag.Bool("seal-empty-days", false, "seal valid empty day files for silent calendar days (leave off with -stride > 1)")
		compactTo = flag.String("compact", "v3", "background-compact sealed days to this format (v1, v3; empty disables)")
		pace      = flag.Int("pace", 0, "throttle to this many records/second (0 = full speed)")
		retries   = flag.Int("retries", 3, "attempts for transient checkpoint/seal failures")
		verbose   = flag.Bool("v", false, "log seals, recoveries and degradations to stderr")
	)
	flag.Parse()
	if *out == "" {
		sf.Fatal(cli.Usagef("-out is required"))
	}
	ctx, stop := sf.Start()
	defer stop()

	start, end, err := cli.Span(*from, *to, simnet.SpanStart, simnet.SpanEnd)
	if err != nil {
		sf.Fatal(err)
	}
	days := core.RangeDays(start, end, sf.Stride)
	if *aggDir == "" {
		*aggDir = filepath.Join(*out, ".agg")
	}
	if *walDir == "" {
		*walDir = filepath.Join(*out, flowrec.WALDirName)
	}
	shared, err := sf.Config()
	if err != nil {
		sf.Fatal(err)
	}

	// Days seal in the row format (cheap sequential write off the WAL);
	// the background compactor rewrites them columnar.
	store, err := flowrec.OpenStoreFormat(*out, flowrec.FormatV1)
	if err != nil {
		sf.Fatal(err)
	}
	cfg := ingest.Config{
		Storage:         core.WithFaults(core.NewDiskStorage(store, *aggDir), shared.Faults),
		Faults:          shared.Faults,
		WALDir:          *walDir,
		CheckpointEvery: *ckEvery,
		Grace:           *grace,
		SealEmptyDays:   *sealEmpty,
		Retry:           retry.Policy{Attempts: *retries, Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: sf.Seed},
	}
	if *compactTo != "" {
		cf, err := flowrec.ParseFormat(*compactTo)
		if err != nil {
			sf.Fatal(cli.Usagef("%v", err))
		}
		cfg.Compactor, cfg.CompactFormat = store, cf
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cfg.Logf = logf

	in, err := ingest.Open(cfg)
	if err != nil {
		sf.Fatal(err)
	}
	if in.Resume() > 0 {
		logf("edged: recovered; resuming stream at seq %d over %d open day(s)", in.Resume(), len(in.OpenDays()))
	}

	scale := simnet.Scale{ADSL: *adsl, FTTH: *ftth}
	w := simnet.NewWorld(sf.Seed, scale)
	src := w.Stream(days)
	src.Seek(in.Resume())

	var (
		sr       simnet.StreamRecord
		n        uint64
		lastCkpt = time.Now()
		tick     time.Time
	)
	exit := 0
	for src.Next(&sr) {
		if err := in.Ingest(ctx, &sr.Rec, sr.At); err != nil {
			// Ingest errors are WAL-level: the record is not durable.
			// Surface and stop rather than silently dropping flow data.
			fmt.Fprintf(os.Stderr, "edged: ingest: %v\n", err)
			exit = 1
			break
		}
		n++
		if ctx.Err() != nil {
			logf("edged: signal received after %d records; checkpointing and exiting", n)
			break
		}
		if *ckIntv > 0 && time.Since(lastCkpt) >= *ckIntv {
			in.CheckpointAll(ctx)
			lastCkpt = time.Now()
		}
		if *pace > 0 && n%uint64(*pace) == 0 {
			// Coarse throttle: after each batch of -pace records, sleep
			// out the remainder of the second.
			if d := time.Second - time.Since(tick); d > 0 && !tick.IsZero() {
				time.Sleep(d)
			}
			tick = time.Now()
		}
	}

	if exit == 0 && ctx.Err() == nil {
		// Stream exhausted: a bounded run seals everything it ingested.
		if err := in.SealAll(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "edged: seal: %v\n", err)
			exit = 1
		}
	}
	// Graceful shutdown either way: checkpoint open days, flush the
	// WAL, persist the resume cursor, drain the compactor. A restart
	// picks up exactly here.
	if err := in.Close(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "edged: close: %v\n", err)
		exit = 1
	}
	logf("edged: %d record(s) ingested, watermark %s", n, in.Watermark().Format(time.RFC3339))
	if exit != 0 {
		os.Exit(exit)
	}
}
