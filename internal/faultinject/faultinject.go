// Package faultinject is the deterministic fault layer of the chaos
// suite: it parses a compact fault-spec string into a Plan and decides
// — reproducibly, from a seed — where I/O errors, bit flips, gzip
// truncations, torn writes, injected latency and probe outages strike.
// The Plan drives three consumers: core's storage wrapper
// (core.WithFaults), which corrupts the read/write path of the flow
// store and the derived caches through NextFault and TruncPoint; the
// ingest daemon's checkpoints and seals, through OpFault; and simnet's
// EmitDayFaults, which suppresses whole days (outages) or drops
// individual records at emission time.
//
// Spec grammar (see the README for the full table):
//
//	spec    := clause (";" clause)*
//	clause  := op ":" param ("," param)*
//	op      := readday | writeday | loadagg | saveagg | emit | outage
//	         | checkpoint | seal
//	param   := "p=" float | "fails=" int | "seed=" uint
//	         | "latency=" duration | "transient" | "permanent"
//	         | "bitflip" | "truncate" | "torn"
//
// Example: "readday:p=0.01,transient;writeday:p=0.005,torn".
//
// Decisions hash (seed, op, day, attempt): the same spec over the same
// days always injects the same faults, so a chaos failure replays.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/flowrec"
	"repro/internal/metrics"
)

// mInjected counts every injected fault (errors, corruptions, drops
// and latency hits alike) — the chaos suite's ground truth that the
// plan actually fired.
var mInjected = metrics.GetCounter("fault.injected")

// Op names a fault site.
type Op uint8

const (
	// OpReadDay faults flow-store day reads.
	OpReadDay Op = iota
	// OpWriteDay faults flow-store day writes.
	OpWriteDay
	// OpLoadAgg faults aggregate-cache loads.
	OpLoadAgg
	// OpSaveAgg faults aggregate-cache saves.
	OpSaveAgg
	// OpEmit drops individual records at emission time.
	OpEmit
	// OpOutage suppresses whole emitted days — the probe outages of
	// the paper's section 2.3.
	OpOutage
	// OpCheckpoint faults the ingest daemon's incremental partial
	// checkpoints (the hot-day snapshots edged persists mid-day).
	OpCheckpoint
	// OpSeal faults the ingest daemon's day seal — the WAL→sealed-day
	// rewrite at rollover.
	OpSeal
	opCount
)

var opNames = [opCount]string{"readday", "writeday", "loadagg", "saveagg", "emit", "outage", "checkpoint", "seal"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Rule is one clause of a fault spec.
type Rule struct {
	Op Op
	// P is the fault probability per decision, in [0, 1].
	P float64
	// Transient marks the injected error retryable: a retry that
	// re-rolls the dice models a fault that clears on its own.
	Transient bool
	// BitFlip and Truncate corrupt the data stream instead of failing
	// the call: records flow until a deterministic point, then the
	// read errors like a damaged gzip would (wrapping
	// flowrec.ErrCorrupt, so quarantine logic engages).
	BitFlip  bool
	Truncate bool
	// Torn fails a write partway through — the short write of a full
	// disk or a killed process.
	Torn bool
	// Latency stalls the operation without failing it.
	Latency time.Duration
	// Fails bounds how many attempts of a selected day fail before
	// the fault clears (0 = the fault never clears by attempt count).
	// With Transient set this makes backoff convergence deterministic.
	Fails int
}

// Plan is a parsed, seeded fault spec. The zero Plan (and a nil Plan)
// injects nothing. Plan is safe for concurrent use.
type Plan struct {
	Seed  uint64
	rules [opCount][]Rule

	mu       sync.Mutex
	attempts map[attemptKey]int
}

type attemptKey struct {
	op  Op
	day int64
}

// Parse builds a Plan from a fault-spec string. An empty spec returns
// a nil Plan (inject nothing).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, attempts: make(map[attemptKey]int)}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		op, params, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want op:params", clause)
		}
		r := Rule{P: 1}
		switch strings.TrimSpace(op) {
		case "readday":
			r.Op = OpReadDay
		case "writeday":
			r.Op = OpWriteDay
		case "loadagg":
			r.Op = OpLoadAgg
		case "saveagg":
			r.Op = OpSaveAgg
		case "emit":
			r.Op = OpEmit
		case "outage":
			r.Op = OpOutage
		case "checkpoint":
			r.Op = OpCheckpoint
		case "seal":
			r.Op = OpSeal
		default:
			return nil, fmt.Errorf("faultinject: unknown op %q (want readday|writeday|loadagg|saveagg|emit|outage|checkpoint|seal)", op)
		}
		for _, param := range strings.Split(params, ",") {
			param = strings.TrimSpace(param)
			if param == "" {
				continue
			}
			key, val, hasVal := strings.Cut(param, "=")
			switch key {
			case "p":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil || !hasVal || f < 0 || f > 1 {
					return nil, fmt.Errorf("faultinject: bad probability %q (want p=0..1)", param)
				}
				r.P = f
			case "fails":
				n, err := strconv.Atoi(val)
				if err != nil || !hasVal || n < 0 {
					return nil, fmt.Errorf("faultinject: bad attempt bound %q (want fails=N)", param)
				}
				r.Fails = n
			case "seed":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || !hasVal {
					return nil, fmt.Errorf("faultinject: bad seed %q (want seed=N)", param)
				}
				p.Seed = n
			case "latency":
				d, err := time.ParseDuration(val)
				if err != nil || !hasVal || d < 0 {
					return nil, fmt.Errorf("faultinject: bad latency %q (want latency=duration)", param)
				}
				r.Latency = d
			case "transient":
				r.Transient = true
			case "permanent":
				r.Transient = false
			case "bitflip":
				r.BitFlip = true
			case "truncate":
				r.Truncate = true
			case "torn":
				r.Torn = true
			default:
				return nil, fmt.Errorf("faultinject: unknown parameter %q in clause %q", param, clause)
			}
		}
		p.rules[r.Op] = append(p.rules[r.Op], r)
	}
	return p, nil
}

// String renders the plan back as a spec (for logs and -stats output).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for op := Op(0); op < opCount; op++ {
		for _, r := range p.rules[op] {
			s := fmt.Sprintf("%s:p=%g", op, r.P)
			if r.Transient {
				s += ",transient"
			}
			if r.BitFlip {
				s += ",bitflip"
			}
			if r.Truncate {
				s += ",truncate"
			}
			if r.Torn {
				s += ",torn"
			}
			if r.Latency > 0 {
				s += ",latency=" + r.Latency.String()
			}
			if r.Fails > 0 {
				s += fmt.Sprintf(",fails=%d", r.Fails)
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, ";")
}

// next returns the 1-based attempt number for (op, day); every fault
// site calls it once per operation (through NextFault) so fails=N and
// per-attempt transient rolls see retries.
func (p *Plan) next(op Op, day time.Time) int {
	if p == nil {
		return 1
	}
	k := attemptKey{op, day.Unix()}
	p.mu.Lock()
	p.attempts[k]++
	n := p.attempts[k]
	p.mu.Unlock()
	return n
}

// roll returns a uniform [0,1) deterministic in (seed, op, day, salt).
func (p *Plan) roll(op Op, day time.Time, salt uint64) float64 {
	x := mix(p.Seed ^ uint64(op)<<56 ^ uint64(day.Unix()) ^ mix(salt))
	return float64(x>>11) / float64(1<<53)
}

// fires decides whether rule r strikes (op, day) on this attempt.
func (p *Plan) fires(r Rule, day time.Time, attempt int) bool {
	switch {
	case r.Fails > 0:
		// Selected days fail their first Fails attempts, then clear.
		return attempt <= r.Fails && p.roll(r.Op, day, 0) < r.P
	case r.Transient:
		// Independent roll per attempt: the fault clears on its own,
		// so backoff converges for p << 1.
		return p.roll(r.Op, day, uint64(attempt)) < r.P
	default:
		// Permanent faults (I/O errors, corruption) strike the same
		// days on every attempt.
		return p.roll(r.Op, day, 0) < r.P
	}
}

// fault returns the fault to inject for (op, day, attempt), or nil.
// Latency-only rules stall the caller here and return nil.
func (p *Plan) fault(op Op, day time.Time, attempt int) *Fault {
	if p == nil {
		return nil
	}
	for _, r := range p.rules[op] {
		if !p.fires(r, day, attempt) {
			continue
		}
		if r.Latency > 0 {
			mInjected.Inc()
			time.Sleep(r.Latency)
			continue // latency stalls but does not fail
		}
		mInjected.Inc()
		f := &Fault{Op: op, Day: day, Attempt: attempt, IsTransient: r.Transient}
		switch {
		case r.BitFlip:
			f.Kind = "bitflip"
			f.wrapped = flowrec.ErrCorrupt
		case r.Truncate:
			f.Kind = "truncate"
			f.wrapped = flowrec.ErrCorrupt
		case r.Torn:
			f.Kind = "torn write"
		case r.Transient:
			f.Kind = "transient i/o"
		default:
			f.Kind = "i/o"
		}
		return f
	}
	return nil
}

// TruncPoint returns how many records a corrupted read delivers, or a
// torn write lands, before failing — deterministic per day, small
// enough to matter.
func (p *Plan) TruncPoint(day time.Time) int {
	return 1 + int(mix(p.Seed^uint64(day.Unix())^0x7472756e63)%255)
}

// DayOutage reports whether an "outage" rule suppresses day entirely.
// It implements simnet.FaultPlan; nil-safe.
func (p *Plan) DayOutage(day time.Time) bool {
	if p == nil {
		return false
	}
	for _, r := range p.rules[OpOutage] {
		if p.roll(OpOutage, day, 0) < r.P {
			mInjected.Inc()
			return true
		}
	}
	return false
}

// DropRecord reports whether an "emit" rule drops record idx of day.
// It implements simnet.FaultPlan; nil-safe and cheap (one hash).
func (p *Plan) DropRecord(day time.Time, idx uint64) bool {
	if p == nil {
		return false
	}
	for _, r := range p.rules[OpEmit] {
		if p.roll(OpEmit, day, idx+1) < r.P {
			mInjected.Inc()
			return true
		}
	}
	return false
}

// NextFault rolls the plan for the next attempt of (op, day) and
// returns the injected fault, or nil. Every call is one attempt: the
// storage wrapper calls it once per operation. Nil-safe.
func (p *Plan) NextFault(op Op, day time.Time) *Fault {
	return p.fault(op, day, p.next(op, day))
}

// OpFault is NextFault as an error, nil when nothing strikes — the
// hook for fault sites outside the storage wrapper: the ingest daemon
// consults it on every checkpoint and seal, with the same (seed, op,
// day, attempt) determinism as the wrapped I/O path. Nil-safe.
func (p *Plan) OpFault(op Op, day time.Time) error {
	if f := p.NextFault(op, day); f != nil {
		return f
	}
	return nil
}

// Fault is an injected failure. Corruption faults wrap
// flowrec.ErrCorrupt so the pipeline's quarantine logic engages;
// transient faults satisfy retry.Transient.
type Fault struct {
	Op          Op
	Day         time.Time
	Attempt     int
	Kind        string
	IsTransient bool
	wrapped     error
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s fault on %s %s (attempt %d)",
		f.Kind, f.Op, f.Day.UTC().Format("2006-01-02"), f.Attempt)
}

// Transient implements the retry package's transient-error convention.
func (f *Fault) Transient() bool { return f.IsTransient }

// Unwrap exposes the wrapped sentinel (flowrec.ErrCorrupt for
// corruption faults), or nil.
func (f *Fault) Unwrap() error { return f.wrapped }

// IsCorruption reports whether the fault damages data (bitflip or
// truncation) rather than failing the operation outright.
func (f *Fault) IsCorruption() bool {
	return f.Kind == "bitflip" || f.Kind == "truncate"
}

// mix is SplitMix64's output scramble.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
