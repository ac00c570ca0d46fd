package analytics

// Sharded stage one: one day's records fan out over K concurrent
// shard aggregators keyed by a hash of the anonymized client address
// (flowrec.ShardKey), and the K partials merge into a result
// byte-identical to the serial fold — the within-day parallelism the
// paper's Hadoop reduction provides, for the straggler case where
// days outnumber neither workers nor cores. Sharding by client keeps
// every record of a subscription on one shard, so per-subscription
// accumulators never straddle shards; the merge rules in merge.go
// make the grouping invisible in the output.

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/flowrec"
	"repro/internal/metrics"
)

// Sharding observability: merges performed, and how unbalanced the
// record fan-out was (worst shard's excess over the mean, percent —
// 0 is perfect balance).
var (
	mShardMerges    = metrics.GetCounter("analytics.shard_merges")
	mShardImbalance = metrics.GetGauge("analytics.shard_imbalance")
)

// maxAutoShards caps auto-sized sharding: past this the per-record
// fan-out cost outweighs any remaining parallelism.
const maxAutoShards = 16

// ResolveShards turns a RunConfig.ShardsPerDay setting into an
// effective shard count. Explicit values (>= 1) pass through.
// 0 auto-sizes to the cores the day-level pool leaves idle,
// GOMAXPROCS/workers — when days already saturate the machine the
// auto answer is 1 and the serial fold runs unchanged. The choice
// never affects results, only wall-clock: any K produces
// byte-identical aggregates.
func ResolveShards(shards, workers int) int {
	if shards >= 1 {
		return shards
	}
	if workers < 1 {
		workers = 1
	}
	k := runtime.GOMAXPROCS(0) / workers
	if k < 1 {
		k = 1
	}
	if k > maxAutoShards {
		k = maxAutoShards
	}
	return k
}

// shardBatch is the fan-out granularity: records are copied out of
// the source's reusable decode buffer into batches this long, so a
// channel hop is paid per batch, not per record.
const shardBatch = 512

// shardDay aggregates one day across shards concurrent aggregators
// and merges the partials. onPartials, when non-nil, sees the
// unmerged partials first (the cache hook) — unless the run spilled,
// in which case the in-memory partials are an incomplete set and the
// hook is skipped. cols is the run's column contract: the source scan
// projects to it, and the v3 store's block decode reuses the shard
// workers' parallelism budget (the fan-out consumer is otherwise the
// serial bottleneck). sp, when non-nil, bounds each shard worker's
// live memory: a worker over its budget share spills its partial and
// restarts empty.
func shardDay(ctx context.Context, src Source, day time.Time, cls *classify.Classifier, shards int, onPartials func(time.Time, []*Partial), cols flowrec.ColumnSet, sketch bool, sp *spiller) (*DayAgg, error) {
	if cls == nil {
		cls = classify.Default()
	}
	finals := make([]*Partial, shards)
	chans := make([]chan []flowrec.Record, shards)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan []flowrec.Record, 4)
		wg.Add(1)
		go func(idx int, in <-chan []flowrec.Record) {
			defer wg.Done()
			a := NewAggregatorCols(day, cls, cols)
			if sketch {
				a.EnableSketches()
			}
			for batch := range in {
				for j := range batch {
					a.Add(&batch[j])
				}
				// Budget check per fan-out batch, not per record: the
				// estimate walk is O(services), a batch is 512 records.
				if sp.over(a) {
					sp.spill(a.Partial())
					a = NewAggregatorCols(day, cls, cols)
					if sketch {
						a.EnableSketches()
					}
				}
			}
			finals[idx] = a.Partial()
		}(i, chans[i])
	}

	counts := make([]uint64, shards)
	bufs := make([][]flowrec.Record, shards)
	flush := func(k int) {
		if len(bufs[k]) == 0 {
			return
		}
		chans[k] <- bufs[k]
		bufs[k] = nil
	}
	err := src.Records(ctx, day, scanFor(cols, shards), func(r *flowrec.Record) {
		k := r.Shard(shards)
		counts[k]++
		if bufs[k] == nil {
			bufs[k] = make([]flowrec.Record, 0, shardBatch)
		}
		// Copy the record: the store decoder reuses its buffer, and
		// the shard aggregator reads it on another goroutine.
		bufs[k] = append(bufs[k], *r)
		if len(bufs[k]) == shardBatch {
			flush(k)
		}
	})
	// Drain and join the shard workers even on error — goroutines
	// must not outlive the call.
	for k := range chans {
		flush(k)
		close(chans[k])
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}

	var total, max uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if mean := float64(total) / float64(shards); mean > 0 {
		mShardImbalance.Set(int64((float64(max) - mean) / mean * 100))
	}

	if err := sp.firstErr(); err != nil {
		return nil, err
	}
	if sp.spilled() {
		// The in-memory finals are only the tail of each shard; the
		// partial-cache hook must not see an incomplete set.
		return sp.merge(day, finals)
	}
	if onPartials != nil {
		onPartials(day, finals)
	}
	return MergePartials(day, finals)
}

// MergePartials folds a day's shard partials into the final DayAgg —
// the stage-one reduce step, shared by the live sharded path and the
// agg cache's partial-replay path. The inputs are never mutated or
// aliased (Merge deep-copies), so cached partials stay reusable.
func MergePartials(day time.Time, parts []*Partial) (*DayAgg, error) {
	merged := NewPartial(day)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			return nil, err
		}
		mShardMerges.Inc()
	}
	return merged.Finish(), nil
}
