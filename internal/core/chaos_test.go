package core

import (
	"context"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flowrec"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// The chaos suite: every figure of the paper, run under each fault
// class the injector models. The acceptance bar is the paper's
// operational reality — five years of unattended pipeline runs — so a
// figure must either converge (transient faults, latency) or degrade
// to partial output with a non-empty per-day error report (permanent
// damage). It must never panic and never lose a day silently.

const chaosSeed = 7

var chaosScale = simnet.Scale{ADSL: 8, FTTH: 4}

// chaosDays is the union of every day any experiment consumes at the
// chaos stride — the store must cover them all so degradation in the
// tests comes from injected faults, not from gaps.
func chaosDays(stride int) []time.Time {
	seen := make(map[time.Time]bool)
	var out []time.Time
	for _, e := range AllExperiments() {
		for _, d := range e.Days(stride) {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// buildChaosStore materialises the chaos day set once into dir, in the
// given day-file format — the suite runs the full fault matrix against
// both, since v3's block structure fails differently under damage.
func buildChaosStore(t *testing.T, dir string, format flowrec.Format, days []time.Time) {
	t.Helper()
	store, err := flowrec.OpenStoreFormat(dir, format)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 8})
	n, err := p.GenerateStore(context.Background(), NewDiskStorage(store, ""), days)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("chaos store generated zero records")
	}
}

// copyTree clones a store directory so each fault class gets a private
// copy (quarantine moves files; classes must not see each other's
// damage).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chaosPolicy retries fast: real backoff shapes are covered by the
// retry package's own tests.
func chaosPolicy() retry.Policy {
	return retry.Policy{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond,
		Seed: 1, Sleep: func(time.Duration) {}}
}

func TestChaosSuite(t *testing.T) {
	for _, format := range []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3} {
		t.Run(format.String(), func(t *testing.T) {
			chaosSuite(t, format)
		})
	}
}

func chaosSuite(t *testing.T, format flowrec.Format) {
	const stride = 120
	days := chaosDays(stride)
	base := t.TempDir()
	buildChaosStore(t, base, format, days)

	mRetries := metrics.GetCounter("store.retries")
	mQuarantined := metrics.GetCounter("store.quarantined_days")
	mInjected := metrics.GetCounter("fault.injected")

	classes := []struct {
		name string
		spec string
		// wantErrs: the class leaves permanent damage, so the per-day
		// error report must be non-empty and some days degrade away.
		wantErrs bool
		// wantRetries: the class is transient, so backoff must engage
		// (store.retries moves) and then every day converges.
		wantRetries bool
		// wantQuarantine: the class corrupts data, so damaged days must
		// move to quarantine.
		wantQuarantine bool
	}{
		{"transient-io", "readday:p=0.05,transient", false, true, false},
		{"permanent-io", "readday:p=0.2", true, false, false},
		{"bitflip", "readday:p=0.2,bitflip", true, false, true},
		{"truncation", "readday:p=0.2,truncate", true, false, true},
		{"latency", "readday:p=0.5,latency=1ms", false, false, false},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, base, dir)
			store, err := flowrec.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := faultinject.Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			p := New(Config{
				Seed: chaosSeed, Scale: chaosScale, Stride: stride, Workers: 4,
				Store: store, Degrade: true, Faults: plan, Retry: chaosPolicy(),
			})

			retries0, quar0, inj0 := mRetries.Load(), mQuarantined.Load(), mInjected.Load()
			for _, e := range AllExperiments() {
				if err := e.Run(context.Background(), p, io.Discard); err != nil {
					t.Fatalf("experiment %s under %s faults: %v", e.ID, c.name, err)
				}
			}
			errs := p.DayErrors()
			retries := mRetries.Load() - retries0
			quarantined := mQuarantined.Load() - quar0
			injected := mInjected.Load() - inj0

			if injected == 0 {
				t.Fatalf("fault plan %q never fired; the class tested nothing", c.spec)
			}
			if c.wantErrs && len(errs) == 0 {
				t.Errorf("%s: expected a non-empty per-day error report", c.name)
			}
			if !c.wantErrs && len(errs) > 0 {
				t.Errorf("%s: %d days failed, want full convergence; first: %v", c.name, len(errs), errs[0])
			}
			if c.wantRetries && retries == 0 {
				t.Errorf("%s: store.retries did not move; backoff never engaged", c.name)
			}
			if c.wantQuarantine && quarantined == 0 {
				t.Errorf("%s: corrupt days were not quarantined", c.name)
			}
			if !c.wantQuarantine && quarantined != 0 {
				t.Errorf("%s: %d days quarantined by a non-corrupting class", c.name, quarantined)
			}
			// Every reported failure names a concrete day with a cause.
			for _, de := range errs {
				if de.Err == nil || de.Day.IsZero() {
					t.Errorf("%s: malformed day error %+v", c.name, de)
				}
			}
		})
	}
}

// TestChaosQuarantineClearsOnRerun: after a corrupting run quarantines
// its damaged days, a fault-free rerun over the same store reads the
// quarantined days as outages — gaps, not repeated errors.
func TestChaosQuarantineClearsOnRerun(t *testing.T) {
	days := MonthDays(2016, time.April)
	dir := t.TempDir()
	// v3 here: quarantine-on-corruption must work for columnar days too.
	buildChaosStore(t, dir, flowrec.FormatV3, days)
	store, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse("readday:p=0.3,truncate")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4,
		Store: store, Degrade: true, Faults: plan, Retry: chaosPolicy()})
	aggs, err := p.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	errs := p.DayErrors()
	if len(errs) == 0 {
		t.Fatal("corrupting run produced no day errors; cannot test the rerun")
	}
	if len(aggs)+len(errs) != len(days) {
		t.Fatalf("%d aggregates + %d errors != %d days: a day was lost silently",
			len(aggs), len(errs), len(days))
	}

	// Rerun without faults over the same (now partially quarantined)
	// store: the damaged days read as outages and everything succeeds.
	store2, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2 := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: store2})
	aggs2, err := p2.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatalf("rerun over quarantined store: %v", err)
	}
	if len(aggs2) != len(aggs) {
		t.Errorf("rerun saw %d days, want the %d that survived quarantine", len(aggs2), len(aggs))
	}
	if len(p2.DayErrors()) != 0 {
		t.Errorf("rerun reported day errors: %v", p2.DayErrors())
	}
}
