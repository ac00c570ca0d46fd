// Command edgereport regenerates the paper's tables and figures from
// the simulated five-year dataset (or from a flow store previously
// written by edgegen/edgeprobe) and prints them as text tables.
//
// Usage:
//
//	edgereport [flags] [experiment ...]
//
// With no experiment arguments it runs the paper registry in order
// (table1, active, fig2 ... fig11); the extensions weekly, quicver and
// whatif run when named. -export writes every experiment's table.
//
//	edgereport -stride 7 fig3 fig8
//	edgereport -store /data/lake fig2
//	edgereport -scale large -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edgereport")
	export := flag.String("export", "", "write the figure data tables (CSV) to this directory and exit")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()
	ctx, stop := sf.Start()
	defer stop()

	if *list {
		for _, e := range core.AllExperiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg, err := sf.Config()
	if err != nil {
		sf.Fatal(err)
	}
	p := core.New(cfg)

	if *export != "" {
		if err := p.ExportData(ctx, *export); err != nil {
			sf.Fatal(err)
		}
		fmt.Printf("figure data tables written to %s\n", *export)
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	start := time.Now()
	for _, id := range ids {
		e, ok := core.Lookup(id)
		if !ok {
			sf.Fatal(cli.Usagef("unknown experiment %q (try -list)", id))
		}
		t0 := time.Now()
		if err := e.Run(ctx, p, os.Stdout); err != nil {
			sf.Fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("[%s done in %v]\n", id, time.Since(t0).Round(time.Millisecond))
	}
	// Degraded runs still produce every healthy day; the failed days
	// are accounted for here rather than silently missing from plots.
	if errs := p.DayErrors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "\nedgereport: %d day(s) failed and were skipped:\n", len(errs))
		for _, de := range errs {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", de.Day.Format("2006-01-02"), de.Err)
		}
	}
	fmt.Printf("\nall done in %v\n", time.Since(start).Round(time.Millisecond))
}
