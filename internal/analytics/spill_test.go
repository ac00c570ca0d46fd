package analytics

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// Bounded-memory external merge tests: a tiny budget must force
// spills (and, with a tiny fan-in, multi-pass merges) while the final
// aggregate stays byte-identical to the unbounded in-memory run —
// over a serial and a parallel block decode alike. Spill failures must
// surface as day errors, never as silently different numbers.

func TestSpillEquivalence(t *testing.T) {
	recs := genDayRecords(17, 4*spillCheckEvery+500)
	want := canon(t, foldSerial(recs))
	src := v3Source(t, recs)

	for _, tc := range []struct {
		name   string
		width  int
		budget int64
		fanIn  int
	}{
		{"serial tiny budget", 1, 1, 2}, // spill at every check, fan-in 2 forces passes
		{"serial small budget", 1, 16 << 10, 0},
		{"parallel decode tiny budget", 3, 1, 2},
		{"parallel decode small budget", 3, 16 << 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spills0, passes0 := mSpills.Load(), mSpillMergePass.Load()
			aggs, dayErrs, err := RunReport(context.Background(), src,
				[]time.Time{testDay}, nil, RunConfig{
					DecodeWidth: tc.width,
					MemBudget:   tc.budget,
					SpillDir:    t.TempDir(),
					SpillFanIn:  tc.fanIn,
				})
			if err != nil || len(dayErrs) > 0 {
				t.Fatalf("RunReport: err=%v dayErrs=%v", err, dayErrs)
			}
			if len(aggs) != 1 {
				t.Fatalf("got %d aggs, want 1", len(aggs))
			}
			if got := canon(t, aggs[0]); !bytes.Equal(got, want) {
				t.Error("spilled aggregate differs from the in-memory run")
			}
			if mSpills.Load() == spills0 {
				t.Error("budget never forced a spill; the test exercised nothing")
			}
			if tc.fanIn == 2 && mSpillMergePass.Load() == passes0 {
				t.Error("fan-in 2 never forced a multi-pass merge")
			}
		})
	}
}

// TestSpillSketchEquivalence: the spill path must carry sketches
// through gob like the partial cache does.
func TestSpillSketchEquivalence(t *testing.T) {
	recs := genDayRecords(19, 4000)
	base, dayErrs, err := RunReport(context.Background(), sliceSource(recs),
		[]time.Time{testDay}, nil, RunConfig{Sketch: true})
	if err != nil || len(dayErrs) > 0 || len(base) != 1 {
		t.Fatalf("baseline: err=%v dayErrs=%v n=%d", err, dayErrs, len(base))
	}
	want := canon(t, base[0])

	spilled, dayErrs, err := RunReport(context.Background(), sliceSource(recs),
		[]time.Time{testDay}, nil, RunConfig{
			Sketch: true, MemBudget: 8 << 10, SpillDir: t.TempDir(), SpillFanIn: 2,
		})
	if err != nil || len(dayErrs) > 0 || len(spilled) != 1 {
		t.Fatalf("spilled: err=%v dayErrs=%v n=%d", err, dayErrs, len(spilled))
	}
	if got := canon(t, spilled[0]); !bytes.Equal(got, want) {
		t.Error("spilled sketch aggregate differs from the in-memory run")
	}
}

// TestSpillCleansUp: the per-attempt temp directories vanish after the
// run, success or not — a five-year pipeline must not leak a spill
// directory per day.
func TestSpillCleansUp(t *testing.T) {
	dir := t.TempDir()
	recs := genDayRecords(21, 4000)
	_, dayErrs, err := RunReport(context.Background(), sliceSource(recs),
		[]time.Time{testDay}, nil, RunConfig{
			MemBudget: 1, SpillDir: dir,
		})
	if err != nil || len(dayErrs) > 0 {
		t.Fatalf("RunReport: err=%v dayErrs=%v", err, dayErrs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not cleaned up: %d entries remain", len(ents))
	}
}

// TestSpillDirFailureIsDayError: an unusable spill root fails the day
// loudly (a budget the machine cannot honour must not silently become
// an unbounded run).
func TestSpillDirFailureIsDayError(t *testing.T) {
	bad := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(bad, []byte("file, not dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs := genDayRecords(23, 500)
	_, dayErrs, err := RunReport(context.Background(), sliceSource(recs),
		[]time.Time{testDay}, nil, RunConfig{MemBudget: 1, SpillDir: bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(dayErrs) != 1 || !strings.Contains(dayErrs[0].Err.Error(), "spill dir") {
		t.Fatalf("dayErrs = %v, want one spill-dir failure", dayErrs)
	}
}

// TestLiveBytesGrows: the accounting estimate must increase as records
// accumulate — it is the budget signal, so a flat estimate would make
// spilling never (or always) fire.
func TestLiveBytesGrows(t *testing.T) {
	recs := genDayRecords(25, 3000)
	a := NewAggregator(testDay, nil)
	if a.LiveBytes() != 0 {
		t.Errorf("empty aggregator estimates %d bytes, want 0", a.LiveBytes())
	}
	var prev int64
	for i := range recs {
		a.Add(&recs[i])
		if i == len(recs)/10 {
			prev = a.LiveBytes()
			if prev <= 0 {
				t.Fatalf("estimate after %d records is %d, want > 0", i+1, prev)
			}
		}
	}
	if got := a.LiveBytes(); got <= prev {
		t.Errorf("estimate did not grow: %d after 10%% of records, %d after all", prev, got)
	}
}
