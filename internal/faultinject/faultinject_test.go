package faultinject

import (
	"errors"
	"testing"
	"time"

	"repro/internal/flowrec"
	"repro/internal/retry"
)

func day(d int) time.Time { return time.Date(2016, 4, d, 0, 0, 0, 0, time.UTC) }

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"readday:p=0.01,transient",
		"readday:p=0.3,bitflip",
		"writeday:p=0.1,torn",
		"readday:p=0.05,transient;saveagg:p=0.2,transient",
		"outage:p=0.1",
		"emit:p=0.001",
		"readday:p=1,transient,fails=2",
		"loadagg:p=0.5,latency=2ms",
	}
	for _, spec := range cases {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.String() != spec {
			t.Errorf("Parse(%q).String() = %q", spec, p.String())
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); err != nil || p != nil {
		t.Errorf("empty spec: plan=%v err=%v, want nil,nil", p, err)
	}
	for _, spec := range []string{
		"frobday:p=0.1",     // unknown op
		"readday",           // missing params
		"readday:p=1.5",     // probability out of range
		"readday:p=x",       // non-numeric
		"readday:fails=-1",  // negative bound
		"readday:latency=x", // bad duration
		"readday:wibble",    // unknown flag
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestSeedParam(t *testing.T) {
	p, err := Parse("outage:p=0.5,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 {
		t.Fatalf("Seed = %d, want 99", p.Seed)
	}
}

// TestDeterministicDecisions: same plan, same days, same faults —
// chaos failures must replay.
func TestDeterministicDecisions(t *testing.T) {
	mk := func() *Plan {
		p, err := Parse("outage:p=0.3;emit:p=0.1")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	var outages int
	for d := 1; d <= 30; d++ {
		if a.DayOutage(day(d)) != b.DayOutage(day(d)) {
			t.Fatalf("day %d: outage decision differs between identical plans", d)
		}
		if a.DayOutage(day(d)) {
			outages++
		}
		for idx := uint64(0); idx < 50; idx++ {
			if a.DropRecord(day(d), idx) != b.DropRecord(day(d), idx) {
				t.Fatalf("day %d idx %d: drop decision differs", d, idx)
			}
		}
	}
	if outages == 0 || outages == 30 {
		t.Errorf("p=0.3 over 30 days hit %d outages; the roll looks degenerate", outages)
	}

	// A different seed must make different picks somewhere.
	c, err := Parse("outage:p=0.3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for d := 1; d <= 30; d++ {
		if a.DayOutage(day(d)) != c.DayOutage(day(d)) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed=1 and seed=7 selected identical outage days over a month")
	}
}

// TestTransientRerolls: a transient rule rolls per attempt, so with
// p=0.5 some attempts fail and some succeed for the same day.
func TestTransientRerolls(t *testing.T) {
	p, err := Parse("readday:p=0.5,transient")
	if err != nil {
		t.Fatal(err)
	}
	var hit, miss bool
	for attempt := 1; attempt <= 64; attempt++ {
		if p.fault(OpReadDay, day(1), attempt) != nil {
			hit = true
		} else {
			miss = true
		}
	}
	if !hit || !miss {
		t.Fatalf("64 attempts at p=0.5: hit=%v miss=%v, want both", hit, miss)
	}
}

// TestFailsClears: fails=2 fails exactly the first two attempts.
func TestFailsClears(t *testing.T) {
	p, err := Parse("readday:p=1,fails=2,transient")
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 4; attempt++ {
		f := p.fault(OpReadDay, day(1), attempt)
		if attempt <= 2 && f == nil {
			t.Fatalf("attempt %d: want fault", attempt)
		}
		if attempt > 2 && f != nil {
			t.Fatalf("attempt %d: want success, got %v", attempt, f)
		}
	}
}

func TestFaultErrorContract(t *testing.T) {
	p, _ := Parse("readday:p=1,transient")
	f := p.fault(OpReadDay, day(1), 1)
	if f == nil {
		t.Fatal("p=1 did not fire")
	}
	if !retry.Transient(f) {
		t.Error("transient fault not recognised by retry.Transient")
	}
	if errors.Is(f, flowrec.ErrCorrupt) {
		t.Error("plain transient fault should not read as corruption")
	}

	p2, _ := Parse("readday:p=1,bitflip")
	f2 := p2.fault(OpReadDay, day(1), 1)
	if f2 == nil {
		t.Fatal("bitflip p=1 did not fire")
	}
	if !errors.Is(f2, flowrec.ErrCorrupt) {
		t.Error("bitflip fault must wrap flowrec.ErrCorrupt")
	}
	if retry.Transient(f2) {
		t.Error("bitflip fault must not be transient")
	}
}
