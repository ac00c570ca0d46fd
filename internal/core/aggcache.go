package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/analytics"
	"repro/internal/framefile"
)

// Persistent stage-one cache. The paper's cluster keeps per-day
// aggregates materialised so that "advanced analytics and
// visualizations" (stage two) iterate without touching the raw flow
// records again (section 2.2). With a cache directory configured, a
// pipeline does the same: each day's aggregate is written as a
// framefile (one checksummed frame of gzip'd gob) and reloaded on the
// next run. A file's name carries its schema version, so a file of an
// older schema is never opened, and a damaged one reads as a miss.

// aggCacheVersion invalidates old cache files when the aggregate
// schema or the file format changes.
const aggCacheVersion = 4

// aggCachePath names the cache file for a day.
func aggCachePath(dir string, day time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("agg-%s-v%d.frames", day.Format("20060102"), aggCacheVersion))
}

// loadAgg reads a cached aggregate, returning nil when absent or
// unusable (a stale or damaged cache is recomputed, never trusted).
func loadAgg(dir string, day time.Time) *analytics.DayAgg {
	var agg analytics.DayAgg
	if framefile.Load(aggCachePath(dir, day), &agg) != nil || !agg.Day.Equal(day) {
		return nil
	}
	return &agg
}

// saveAgg writes an aggregate to the cache. Failures are returned so
// callers can surface them; a full disk should not pass silently.
func saveAgg(dir string, agg *analytics.DayAgg) error {
	if _, err := framefile.Save(aggCachePath(dir, agg.Day), agg); err != nil {
		return fmt.Errorf("core: aggregate cache: %w", err)
	}
	return nil
}

// Partial cache files. The live ingester checkpoints each open day as
// unmerged partials instead of a final aggregate, so a query merges
// the cached partials (cheap) instead of waiting for the day to seal;
// parts-* files written by older batch runs replay the same way. The
// merge is the same monoid stage one's spill path uses, so replayed
// days stay byte-identical.
//
// The file is a sequence of framefile frames, [base][delta]…[delta],
// each holding one cachedPartials envelope. SavePartials writes the
// whole file as one frame (savePartials); the live ingester writes its
// open day's merged partial that way and then appends what each
// later checkpoint folded as a further frame (appendPartial), so a
// checkpoint costs the records since the last one rather than the
// whole day. A reader takes every frame up to the first that is short,
// fails its checksum or does not decode — a torn or damaged tail reads
// as the older snapshot the frames before it add up to, never as an
// error.

// partialCacheVersion invalidates old partial files when the partial
// schema or the file framing changes, independently of the
// final-aggregate file.
const partialCacheVersion = 4

// cachedPartials is the envelope one frame carries.
type cachedPartials struct {
	Day   time.Time
	Parts []*analytics.Partial
}

// partialCachePath names the partial file for a day.
func partialCachePath(dir string, day time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("parts-%s-v%d.frames", day.Format("20060102"), partialCacheVersion))
}

// loadPartials returns the parts of every leading healthy frame of a
// day's partial file, in file order; nil when absent or unusable —
// same trust model as loadAgg.
func loadPartials(dir string, day time.Time) []*analytics.Partial {
	var parts []*analytics.Partial
	_ = framefile.Read(partialCachePath(dir, day), func(data []byte) error {
		framefile.Scan(data, func(_ int, payload []byte) bool {
			var env cachedPartials
			if framefile.Decode(payload, &env) != nil || len(env.Parts) == 0 || !env.Day.Equal(day) {
				return false
			}
			parts = append(parts, env.Parts...)
			return true
		})
		return nil
	}) // an absent or unreadable file is a miss
	return parts
}

// savePartials replaces a day's partial file with one frame holding
// parts.
func savePartials(dir string, day time.Time, parts []*analytics.Partial) error {
	if _, err := framefile.Save(partialCachePath(dir, day), cachedPartials{Day: day, Parts: parts}); err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	return nil
}

// appendPartial appends p to a day's partial file as one delta frame.
// The file must exist: a delta only means something after the base
// that savePartials wrote.
func appendPartial(dir string, day time.Time, p *analytics.Partial) error {
	if err := framefile.Append(partialCachePath(dir, day), cachedPartials{Day: day, Parts: []*analytics.Partial{p}}); err != nil {
		return fmt.Errorf("core: partial cache: %w", err)
	}
	return nil
}

// sweepTemps removes the temp siblings that a save killed between
// its write and its rename left beside a day's aggregate and partial
// files.
func sweepTemps(dir string, day time.Time) error {
	return framefile.RemoveTemps(aggCachePath(dir, day), partialCachePath(dir, day))
}
