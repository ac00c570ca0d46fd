package faultinject

import (
	"errors"
	"testing"
	"time"

	"repro/internal/retry"
)

// hasOp reports whether the plan has any rule for op.
func hasOp(p *Plan, op Op) bool {
	return p != nil && len(p.rules[op]) > 0
}

// TestParseIngestOps pins the grammar extension for the ingest
// daemon's fault sites.
func TestParseIngestOps(t *testing.T) {
	p, err := Parse("checkpoint:p=0.5,transient;seal:p=1,fails=2,transient")
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(p, OpCheckpoint) || !hasOp(p, OpSeal) {
		t.Fatalf("parsed plan misses ingest ops: %s", p)
	}
	if hasOp(p, OpReadDay) {
		t.Fatalf("parsed plan grew unrelated ops: %s", p)
	}
	// The spec round-trips through String, like every other op.
	rt, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if rt.String() != p.String() {
		t.Fatalf("spec did not round-trip: %q vs %q", rt.String(), p.String())
	}
	if _, err := Parse("checkponit:p=1"); err == nil {
		t.Fatal("typo op parsed")
	}
}

// TestOpFaultDeterministicAndRetryable: OpFault is deterministic in
// (seed, op, day, attempt), counts attempts so fails=N clears, and
// its transient faults satisfy the retry package's convention.
func TestOpFaultDeterministicAndRetryable(t *testing.T) {
	day := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

	mk := func() *Plan {
		p, err := Parse("seal:p=1,fails=2,transient,seed=42")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Two fresh plans agree attempt by attempt.
	a, b := mk(), mk()
	for i := 0; i < 4; i++ {
		ea, eb := a.OpFault(OpSeal, day), b.OpFault(OpSeal, day)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("attempt %d: plans disagree (%v vs %v)", i+1, ea, eb)
		}
		if i < 2 && ea == nil {
			t.Fatalf("attempt %d: fails=2 fault did not fire", i+1)
		}
		if i >= 2 && ea != nil {
			t.Fatalf("attempt %d: fails=2 fault did not clear: %v", i+1, ea)
		}
		if ea != nil && !retry.Transient(ea) {
			t.Fatalf("transient fault not retryable: %v", ea)
		}
		var f *Fault
		if ea != nil && !errors.As(ea, &f) {
			t.Fatalf("OpFault returned a non-Fault error: %T", ea)
		}
	}

	// An op with no rules — and a nil plan — never fault.
	if err := mk().OpFault(OpCheckpoint, day); err != nil {
		t.Fatalf("ruleless op faulted: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.OpFault(OpSeal, day); err != nil {
		t.Fatalf("nil plan faulted: %v", err)
	}
}
