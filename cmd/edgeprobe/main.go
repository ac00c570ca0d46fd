// Command edgeprobe exercises the packet path end to end: it renders
// days of the simulated world as raw packet streams (Ethernet/IPv4/
// TCP|UDP frames with real TLS, HTTP, QUIC and DNS payload bytes),
// feeds them through the passive probe — parsing, flow tracking, DPI,
// DN-Hunter, RTT estimation, anonymization — and writes the exported
// flow records to a store that edgereport can analyse.
//
// It is the software equivalent of the paper's deployment: what
// edgegen fabricates directly, edgeprobe measures off the wire.
//
// Usage:
//
//	edgeprobe -out /data/probelake -from 2016-12-01 -to 2016-12-07
//	edgeprobe -out /data/probelake -pcap-in capture.pcap      # replay a trace
//	edgeprobe -out /data/probelake -from 2016-12-01 -pcap-out day.pcap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/retry"
	"repro/internal/simnet"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edgeprobe")
	var (
		out     = flag.String("out", "", "store directory (required)")
		from    = flag.String("from", "", "first day (YYYY-MM-DD)")
		to      = flag.String("to", "", "last day (YYYY-MM-DD)")
		adsl    = flag.Int("adsl", 12, "ADSL subscriber count")
		ftth    = flag.Int("ftth", 6, "FTTH subscriber count")
		capKiB  = flag.Int("flowcap", 96, "materialised payload cap per flow direction (KiB)")
		format  = flag.String("format", "v1", "day-file format: v1 (row codec) or v3 (columnar, per-block compression); readers auto-detect")
		pcapIn  = flag.String("pcap-in", "", "replay packets from this pcap file instead of simulating")
		pcapOut = flag.String("pcap-out", "", "also dump the simulated packet stream to this pcap file")
	)
	flag.Parse()
	ctx, stop := sf.Start()
	defer stop()
	if *out == "" {
		sf.Fatal(cli.Usagef("-out is required"))
	}
	start, end, err := cli.Span(*from, *to, simnet.SpanStart, time.Time{})
	if err != nil {
		sf.Fatal(err)
	}
	// Of the shared configuration the probe path uses the fault plan
	// (output-store chaos) and the rollup prewarm settings; -shards here
	// counts probe workers, not block-decode workers.
	shared, err := sf.Config()
	if err != nil {
		sf.Fatal(err)
	}
	plan := shared.Faults

	world := simnet.NewWorld(sf.Seed, simnet.Scale{ADSL: *adsl, FTTH: *ftth})
	sfmt, err := flowrec.ParseFormat(*format)
	if err != nil {
		sf.Fatal(cli.Usagef("%v", err))
	}
	store, err := flowrec.OpenStoreFormat(*out, sfmt)
	if err != nil {
		sf.Fatal(err)
	}
	// The probe writes through the storage interface so the chaos
	// layer can exercise the capture->store path; a torn or transient
	// write retries by re-simulating the day (deterministic, and the
	// rewrite truncates the partial file).
	// Carrying the rollup directory on the write side drops stale
	// windows covering any day this capture rewrites.
	var dst core.Storage = core.NewDiskStorage(store, "").WithRollupDir(sf.Rollup)
	if plan != nil {
		dst = faultinject.Wrap(dst, plan)
	}
	pol := retry.Policy{Attempts: 3, Base: 25 * time.Millisecond, Max: 500 * time.Millisecond, Seed: sf.Seed}

	if *pcapIn != "" {
		if err := replayPcap(world, store, *pcapIn); err != nil {
			sf.Fatal(err)
		}
		if err := prewarmRollups(ctx, store, sf.Rollup, sf.Sketch); err != nil {
			sf.Fatal(err)
		}
		return
	}

	t0 := time.Now()
	var totalFlows, totalPkts uint64
	for _, day := range core.RangeDays(start, end, 1) {
		// An "outage" rule models the capture box being down: the whole
		// day is skipped, leaving a gap in the lake (nil-safe on plan).
		if plan.DayOutage(day) {
			fmt.Printf("%s: probe outage (injected), day skipped\n", day.Format("2006-01-02"))
			continue
		}
		var dayStats probe.Stats
		err := pol.Do(ctx, uint64(day.Unix()), func() error {
			_, werr := dst.WriteDay(day, func(write func(*flowrec.Record) error) error {
				// With -shards > 1 records arrive concurrently from the
				// shard workers, but the day writer is single-lane: the
				// mutex funnels them back into one stream.
				var mu sync.Mutex
				var recErr error
				cfg := probe.Config{
					Subscriber:       world.SubscriberLookup,
					AnonKey:          world.AnonKey(),
					SPDYVisibleSince: simnet.SPDYVisibleSince(),
					OnRecord: func(r *flowrec.Record) {
						// Clamp to the partition day: flows crossing
						// midnight land in the day they started, as in
						// Tstat logs.
						mu.Lock()
						if recErr == nil && r.Day().Equal(day) {
							recErr = write(r)
						}
						mu.Unlock()
					},
				}
				var feed func(probe.Packet)
				var finish func()
				if sf.Shards > 1 {
					// Flow-hash packet fan-out across independent probes,
					// the deployment's DPDK-queue layout. Safe here: the
					// simulator hands every packet its own buffer.
					sp := probe.NewSharded(sf.Shards, cfg)
					feed = sp.Feed
					finish = func() { sp.Close(); dayStats = sp.Stats() }
				} else {
					pr := probe.New(cfg)
					feed = pr.Feed
					finish = func() { pr.Flush(); dayStats = pr.Stats }
				}
				var pw *pcap.Writer
				if *pcapOut != "" {
					f, err := os.Create(*pcapOut)
					if err != nil {
						sf.Fatal(err)
					}
					defer f.Close()
					if pw, err = pcap.NewWriter(f, 0); err != nil {
						sf.Fatal(err)
					}
					inner := feed
					feed = func(p probe.Packet) {
						if err := pw.WritePacket(p.TS, p.Data); err != nil {
							sf.Fatal(fmt.Errorf("pcap: %w", err))
						}
						inner(p)
					}
					*pcapOut = "" // one file covers the first day only
				}
				world.EmitDayPackets(day, simnet.PacketOptions{MaxFlowBytes: uint64(*capKiB) << 10}, feed)
				finish()
				if pw != nil {
					if err := pw.Flush(); err != nil {
						sf.Fatal(fmt.Errorf("pcap: %w", err))
					}
				}
				return recErr
			})
			return werr
		})
		if err != nil {
			sf.Fatal(fmt.Errorf("%s: %w", day.Format("2006-01-02"), err))
		}
		totalFlows += dayStats.FlowsExported
		totalPkts += dayStats.Packets
		fmt.Printf("%s: %s\n", day.Format("2006-01-02"), dayStats)
	}
	fmt.Printf("probe path done: %d packets -> %d flows in %v\n",
		totalPkts, totalFlows, time.Since(t0).Round(time.Millisecond))
	if err := prewarmRollups(ctx, store, sf.Rollup, sf.Sketch); err != nil {
		sf.Fatal(err)
	}
}

// prewarmRollups folds every day in the freshly written store into
// week/month/year rollup files under dir ("" = no prewarm), so the
// first analysis run against the capture answers from the tier instead
// of re-folding day aggregates. The probe pipeline carries no analytics
// wiring of its own; a second, read-side pipeline does the folding.
func prewarmRollups(ctx context.Context, store *flowrec.Store, dir string, sketch bool) error {
	if dir == "" {
		return nil
	}
	t0 := time.Now()
	days, err := store.Days()
	if err != nil {
		return fmt.Errorf("rollup prewarm: %w", err)
	}
	p := core.New(core.Config{Store: store, RollupDir: dir, Sketch: sketch})
	nw, err := p.BuildRollups(ctx, days)
	if err != nil {
		return fmt.Errorf("rollup prewarm: %w", err)
	}
	fmt.Printf("prewarmed %d rollup windows into %s in %v\n",
		nw, dir, time.Since(t0).Round(time.Millisecond))
	return nil
}

// replayPcap feeds a capture file through the probe and stores the
// exported flows, partitioned by day.
func replayPcap(world *simnet.World, store *flowrec.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	if r.LinkType != pcap.LinkTypeEthernet {
		return fmt.Errorf("%w: %d", pcap.ErrWrongLink, r.LinkType)
	}

	writers := make(map[time.Time]*flowrec.DayWriter)
	var werr error
	pr := probe.New(probe.Config{
		Subscriber:       world.SubscriberLookup,
		AnonKey:          world.AnonKey(),
		SPDYVisibleSince: simnet.SPDYVisibleSince(),
		OnRecord: func(rec *flowrec.Record) {
			if werr != nil {
				return
			}
			day := rec.Day()
			w, ok := writers[day]
			if !ok {
				w, werr = store.CreateDay(day)
				if werr != nil {
					return
				}
				writers[day] = w
			}
			werr = w.Write(rec)
		},
	})
	var pkts uint64
	for {
		ts, data, err := r.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		pkts++
		pr.Feed(probe.Packet{TS: ts, Data: data})
	}
	pr.Flush()
	for _, w := range writers {
		if err := w.Close(); err != nil && werr == nil {
			werr = err
		}
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("replayed %d packets -> %s\n", pkts, pr.Stats)
	return nil
}
