package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flowrec"
)

// Property: graceful degradation must not distort what survives. A
// pipeline run under per-day faults yields exactly the fault-free
// aggregates for the days that survive, and the failed days appear in
// the error report — partial output, never wrong output.
func TestDegradedTotalsMatchFaultFreeOnSurvivingDays(t *testing.T) {
	days := MonthDays(2016, time.April)
	base := t.TempDir()
	buildChaosStore(t, base, flowrec.FormatV3, days)

	// Fault-free reference run over its own copy.
	cleanDir := t.TempDir()
	copyTree(t, base, cleanDir)
	cleanStore, err := flowrec.OpenStore(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	clean := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4, Store: cleanStore})
	cleanAggs, err := clean.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanAggs) != len(days) {
		t.Fatalf("fault-free run returned %d days, want %d", len(cleanAggs), len(days))
	}
	cleanByDay := make(map[time.Time]int, len(cleanAggs))
	for i, a := range cleanAggs {
		cleanByDay[a.Day] = i
	}

	// Degraded run under permanent corruption over a second copy.
	faultDir := t.TempDir()
	copyTree(t, base, faultDir)
	faultStore, err := flowrec.OpenStore(faultDir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse("readday:p=0.3,truncate")
	if err != nil {
		t.Fatal(err)
	}
	faulted := New(Config{Seed: chaosSeed, Scale: chaosScale, Workers: 4,
		Store: faultStore, Degrade: true, Faults: plan, Retry: chaosPolicy()})
	survAggs, err := faulted.Aggregate(context.Background(), days)
	if err != nil {
		t.Fatal(err)
	}
	errs := faulted.DayErrors()
	if len(errs) == 0 {
		t.Fatal("fault plan injected nothing; the property is vacuous")
	}
	if len(survAggs) == 0 {
		t.Fatal("no days survived; the property is vacuous")
	}

	// Accounting: surviving ∪ failed = requested, disjoint.
	if len(survAggs)+len(errs) != len(days) {
		t.Fatalf("%d surviving + %d failed != %d requested: silent loss",
			len(survAggs), len(errs), len(days))
	}
	failed := make(map[time.Time]bool, len(errs))
	for _, de := range errs {
		failed[de.Day] = true
	}
	for _, a := range survAggs {
		if failed[a.Day] {
			t.Errorf("day %s is both surviving and failed", a.Day.Format("2006-01-02"))
		}
	}

	// Equality: each surviving day's totals match the fault-free run.
	for _, a := range survAggs {
		i, ok := cleanByDay[a.Day]
		if !ok {
			t.Errorf("surviving day %s not in fault-free run", a.Day.Format("2006-01-02"))
			continue
		}
		c := cleanAggs[i]
		if a.Flows != c.Flows || a.TotalDown != c.TotalDown || a.TotalUp != c.TotalUp {
			t.Errorf("day %s diverged under faults: flows %d/%d down %d/%d up %d/%d",
				a.Day.Format("2006-01-02"),
				a.Flows, c.Flows, a.TotalDown, c.TotalDown, a.TotalUp, c.TotalUp)
		}
		if len(a.Subs) != len(c.Subs) {
			t.Errorf("day %s subscriber count diverged: %d vs %d",
				a.Day.Format("2006-01-02"), len(a.Subs), len(c.Subs))
		}
	}
}
