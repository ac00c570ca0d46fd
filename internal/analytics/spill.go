package analytics

// Bounded-memory stage one. A day at production scale (10⁵–10⁶ lines)
// can hold more live accumulator state — per-subscription counters,
// the server-address inventory, RTT reservoirs — than the machine has
// RAM. The merge monoid (merge.go) already makes any grouping of a
// day's records equivalent, so when the live estimate crosses a
// configured budget the aggregator seals its state into a Partial,
// spills it to disk (parts-*.frames, one framefile frame, the codec of
// every derived file) and restarts empty. Spilled partials merge
// back in bounded fan-in passes, so aggregation memory is O(budget +
// final aggregate), not O(day's working state) — and because the merge
// is the same associative fold the sharded path uses, the result is
// byte-identical to the unbounded in-memory run.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framefile"
	"repro/internal/metrics"
)

// Spill observability: partials written, bytes they occupied on disk,
// and extra merge passes the fan-in bound forced.
var (
	mSpills         = metrics.GetCounter("analytics.spills")
	mSpillBytes     = metrics.GetCounter("analytics.spill_bytes")
	mSpillMergePass = metrics.GetCounter("analytics.spill_merge_passes")
)

// spillCheckEvery is how many records the serial fold accumulates
// between budget checks (the sharded path checks per fan-out batch).
const spillCheckEvery = 2048

// defaultSpillFanIn bounds how many spill files one merge pass opens.
const defaultSpillFanIn = 8

// LiveBytes estimates the aggregator's live accumulator footprint in
// bytes. It is an accounting model, not a heap measurement: per-entry
// costs approximate Go's map/pointer overhead, and the point is a
// deterministic, cheap signal that grows with the real footprint so a
// budget comparison lands in the right order of magnitude. O(services)
// per call, so callers sample it every few thousand records.
func (a *Aggregator) LiveBytes() int64 {
	const (
		subCost  = 96 // subAcc + map entry + pointer
		svcCost  = 24 // one svcUse slot in a subscription's dense slice
		ipCost   = 72 // ipAcc + map entry
		memoCost = 56 // interned name + ID + map entry
		domCost  = 48 // domain key + counter + map entry
		rttCost  = 16 // one (hash, ms) sample
	)
	n := int64(len(a.subs)) * (subCost + int64(a.nsvc)*svcCost)
	n += int64(len(a.ips)) * ipCost
	n += int64(len(a.memo)) * memoCost
	for _, m := range a.domainBytes {
		n += int64(len(m)) * domCost
	}
	for _, r := range a.rtt {
		if r != nil {
			n += int64(len(r.heap)) * rttCost
		}
	}
	if a.agg != nil {
		n += int64(len(a.agg.QUICVersions)) * domCost
	}
	return n
}

// spiller owns one day-attempt's spill state: a private temp directory
// of partial files, the per-aggregator budget share, and the fan-in
// for merge passes. Safe for concurrent spill calls from shard
// workers; merge runs after they join.
type spiller struct {
	dir    string
	budget int64
	fanIn  int
	seq    atomic.Int64
	n      atomic.Int64

	mu  sync.Mutex
	err error
}

// newSpiller builds a spiller for one day attempt, or nil when the
// config sets no budget (the unbounded path pays nothing). shares is
// how many concurrent aggregators split the budget.
func newSpiller(cfg RunConfig, day time.Time, shares int) (*spiller, error) {
	if cfg.MemBudget <= 0 {
		return nil, nil
	}
	base := cfg.SpillDir
	if base == "" {
		base = os.TempDir()
	} else if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("analytics: spill dir: %w", err)
	}
	dir, err := os.MkdirTemp(base, "spill-"+day.UTC().Format("20060102")+"-")
	if err != nil {
		return nil, fmt.Errorf("analytics: spill dir: %w", err)
	}
	if shares < 1 {
		shares = 1
	}
	budget := cfg.MemBudget / int64(shares)
	if budget < 1 {
		budget = 1
	}
	fanIn := cfg.SpillFanIn
	if fanIn < 2 {
		fanIn = defaultSpillFanIn
	}
	return &spiller{dir: dir, budget: budget, fanIn: fanIn}, nil
}

// over reports whether an aggregator's live estimate crossed the
// per-aggregator budget share.
func (sp *spiller) over(a *Aggregator) bool {
	return sp != nil && a.LiveBytes() > sp.budget
}

// spill writes one sealed partial to disk. Failures are remembered
// (first wins) and reported by firstErr after the scan; the caller
// keeps aggregating either way, so a failed spill degrades to more
// memory, never to wrong results.
func (sp *spiller) spill(p *Partial) {
	n, err := writeSpill(sp.nextPath(), p)
	if err != nil {
		sp.mu.Lock()
		if sp.err == nil {
			sp.err = err
		}
		sp.mu.Unlock()
		return
	}
	sp.n.Add(1)
	mSpills.Inc()
	mSpillBytes.Add(uint64(n))
}

// nextPath names the next spill file; zero-padded so the lexical sort
// in files() is the write order.
func (sp *spiller) nextPath() string {
	return filepath.Join(sp.dir, fmt.Sprintf("parts-%06d.frames", sp.seq.Add(1)))
}

// spilled reports whether any partial reached disk.
func (sp *spiller) spilled() bool { return sp != nil && sp.n.Load() > 0 }

// firstErr returns the first spill failure, if any.
func (sp *spiller) firstErr() error {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.err
}

// cleanup removes the attempt's spill directory. Idempotent.
func (sp *spiller) cleanup() {
	if sp != nil {
		os.RemoveAll(sp.dir)
	}
}

// files lists the attempt's spill files in write order.
func (sp *spiller) files() ([]string, error) {
	ents, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil, fmt.Errorf("analytics: listing spills: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, filepath.Join(sp.dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// merge folds every spilled partial plus the still-in-memory finals
// into the day's aggregate. While more than fanIn files remain, groups
// of fanIn merge into new spill files — each pass holds one group's
// accumulator plus a single loaded partial, keeping the peak at
// O(budget + merged output) however many partials a day produced. The
// fold is Partial.Merge throughout, so the result is byte-identical
// to MergePartials over an in-memory run.
func (sp *spiller) merge(day time.Time, finals []*Partial) (*DayAgg, error) {
	files, err := sp.files()
	if err != nil {
		return nil, err
	}
	for len(files) > sp.fanIn {
		var next []string
		for i := 0; i < len(files); i += sp.fanIn {
			g := files[i:min(i+sp.fanIn, len(files))]
			if len(g) == 1 {
				next = append(next, g[0])
				continue
			}
			acc := NewPartial(day)
			for _, path := range g {
				p, err := readSpill(path)
				if err != nil {
					return nil, err
				}
				if err := acc.Merge(p); err != nil {
					return nil, err
				}
				mShardMerges.Inc()
			}
			out := sp.nextPath()
			if _, err := writeSpill(out, acc); err != nil {
				return nil, err
			}
			for _, path := range g {
				os.Remove(path)
			}
			next = append(next, out)
		}
		files = next
		mSpillMergePass.Inc()
	}
	acc := NewPartial(day)
	for _, path := range files {
		p, err := readSpill(path)
		if err != nil {
			return nil, err
		}
		if err := acc.Merge(p); err != nil {
			return nil, err
		}
		mShardMerges.Inc()
	}
	for _, p := range finals {
		if err := acc.Merge(p); err != nil {
			return nil, err
		}
		mShardMerges.Inc()
	}
	return acc.Finish(), nil
}

// writeSpill persists one partial, returning the bytes written.
func writeSpill(path string, p *Partial) (int64, error) {
	n, err := framefile.Save(path, p)
	if err != nil {
		return 0, fmt.Errorf("analytics: writing spill: %w", err)
	}
	return n, nil
}

// readSpill loads one spilled partial. A damaged run is an error: the
// day's answer needs every run.
func readSpill(path string) (*Partial, error) {
	var p Partial
	if err := framefile.Load(path, &p); err != nil {
		return nil, fmt.Errorf("analytics: reading spill: %w", err)
	}
	return &p, nil
}
