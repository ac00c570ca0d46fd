// Command edgequery runs ad-hoc queries over an on-disk flow store —
// the "specific queries on historical collections" of section 2.2. It
// is a thin front-end over the scan engine /v1/scan also uses: it
// filters by day range, service, protocol, subscriber, access
// technology and server port, and prints matching records as CSV or a
// per-service summary. Days absent from the lake are probe outages and
// are skipped; a damaged day is never folded into the totals and makes
// the run exit 1 naming it (a CSV export stops at the damaged day).
//
// Usage:
//
//	edgequery -store /data/lake -from 2016-11-01 -to 2016-11-07 -summary
//	edgequery -store /data/lake -from 2016-11-05 -service Netflix -csv -
//	edgequery -store /data/lake -from 2016-11-05 -proto FB-ZERO -summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scan"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command, returning the exit status: 0 on success,
// 1 on a failed or damaged read, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edgequery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := cli.Register(fs, "edgequery")
	var (
		from    = fs.String("from", "", "first day YYYY-MM-DD (required)")
		to      = fs.String("to", "", "last day (default: same as -from)")
		service = fs.String("service", "", "only flows of this service (e.g. Netflix)")
		proto   = fs.String("proto", "", "only flows with this protocol label (e.g. QUIC, FB-ZERO)")
		subID   = fs.Int64("sub", -1, "only this subscription id")
		tech    = fs.String("tech", "", "only this access technology (adsl or ftth); pushed down into the scan")
		srvPort = fs.String("srvport", "", "only this server port or inclusive range lo-hi (e.g. 443 or 6881-6999); pushed down into the scan")
		csvOut  = fs.String("csv", "", "write matching records as CSV to this file ('-' = stdout)")
		summary = fs.Bool("summary", false, "print per-service volume summary")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "edgequery: %v\n", err)
		return cli.ExitCode(err)
	}
	ctx, stop := sf.Start()
	defer stop()

	if sf.Store == "" || *from == "" {
		return fail(cli.Usagef("-store and -from are required"))
	}
	start, end, err := cli.Span(*from, *to, time.Time{}, time.Time{})
	if err != nil {
		return fail(err)
	}
	q := scan.Query{Days: core.RangeDays(start, end, 1)}
	if *service != "" {
		q.Filter.Services = []classify.Service{classify.Service(*service)}
	}
	q.Filter.Proto = *proto
	q.Filter.HasSub, q.Filter.SubID = *subID >= 0, uint32(max(*subID, 0))
	if err := errors.Join(q.Filter.SetTech(*tech), q.Filter.SetSrvPort(*srvPort)); err != nil {
		return fail(cli.Usagef("%v", err))
	}
	f := q.Filter
	filtered := len(f.Services) > 0 || f.Proto != "" || f.HasSub || f.Tech != "" || f.HasSrvPort

	cfg, err := sf.Config()
	if err != nil {
		return fail(err)
	}
	// -shards is the block-decode width of the scan and of the stage one
	// behind -rollup alike.
	q.Workers = cfg.ShardsPerDay
	p := core.New(cfg)

	// -rollup answers from the tier instead of scanning records: the
	// pipeline folds per-day aggregates into calendar windows (loaded
	// from the rollup directory when current, built and persisted when
	// not) and the query prints one row per window. Windows hold whole
	// days of every record, so a record filter cannot apply to them.
	if sf.Rollup != "" {
		if filtered {
			return fail(cli.Usagef("-rollup prints whole-window totals; it cannot be combined with -service, -proto, -sub, -tech or -srvport"))
		}
		if err := rollupQuery(ctx, stdout, stderr, p, q.Days, sf.Sketch); err != nil {
			return fail(err)
		}
		return 0
	}

	if *csvOut == "-" {
		q.CSV = stdout
	} else if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		q.CSV = f
	}
	res, err := scan.Run(ctx, p.Storage(), p.Cls, q)
	if err != nil {
		if n := len(res.FailedDays); n > 0 {
			err = fmt.Errorf("%s: %w", res.FailedDays[n-1], err)
		}
		return fail(err)
	}

	fmt.Fprintf(stderr, "scanned %d records, matched %d\n", res.Scanned, res.Matched)
	if gaps := len(q.Days) - res.ScannedDays - len(res.FailedDays); gaps > 0 {
		fmt.Fprintf(stderr, "%d of %d day(s) absent from the lake (probe outages)\n", gaps, len(q.Days))
	}
	if *summary {
		var cells [][]string
		for _, r := range res.Services {
			cells = append(cells, []string{
				r.Service, fmt.Sprint(r.Flows),
				report.MB(float64(r.DownBytes)), report.MB(float64(r.UpBytes)),
			})
		}
		if err := report.Table(stdout, []string{"service", "flows", "down MB", "up MB"}, cells); err != nil {
			return fail(err)
		}
	}
	if n := len(res.FailedDays); n > 0 {
		return fail(fmt.Errorf("%d damaged day(s) left out of the totals: %s", n, strings.Join(res.FailedDays, " ")))
	}
	return 0
}

// rollupQuery prints the rollup-tier answer for days: one row per
// calendar window (grain, start, source days, totals), and in sketch
// mode the window's estimated distinct clients and top services by
// downloaded bytes. Edge days outside any whole calendar window are
// counted on stderr rather than silently folded away.
func rollupQuery(ctx context.Context, stdout, stderr io.Writer, p *core.Pipeline, days []time.Time, sketch bool) error {
	rolls, err := p.Rollups(ctx, days)
	if err != nil {
		return err
	}
	covered := 0
	var cells [][]string
	for _, r := range rolls {
		covered += len(r.Requested)
		row := []string{
			string(r.Grain), report.Day(r.Start), fmt.Sprint(len(r.SourceDays)), fmt.Sprint(r.Agg.Flows),
			report.MB(float64(r.Agg.TotalDown)), report.MB(float64(r.Agg.TotalUp)),
		}
		if sketch {
			clients, topSvc := "-", "-"
			if s := r.Agg.Sketches; s != nil {
				clients = fmt.Sprintf("%.0f ±%.1f%%", s.Clients.Estimate(), 100*s.Clients.RelErr())
				var names []string
				for _, c := range s.Services.Top(3) {
					if c.Key == "" {
						c.Key = "(unclassified)"
					}
					names = append(names, c.Key)
				}
				topSvc = strings.Join(names, " ")
			}
			row = append(row, clients, topSvc)
		}
		cells = append(cells, row)
	}
	headers := []string{"window", "start", "days", "flows", "down MB", "up MB"}
	if sketch {
		headers = append(headers, "est clients", "top services")
	}
	if err := report.Table(stdout, headers, cells); err != nil {
		return err
	}
	if leftover := len(days) - covered; leftover > 0 {
		fmt.Fprintf(stderr, "%d edge day(s) outside whole calendar windows stayed on the day tier and are not in the table\n", leftover)
	}
	return nil
}
