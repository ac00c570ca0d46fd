package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/flowrec"
)

var day0 = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

// fakeLake is an in-memory Source: day i holds n[i] records (SubID =
// index, 100 bytes down, 10 up); a negative count is a missing day,
// and failAfter[i] > 0 damages day i after that many records.
// atRecord10, when set, runs as a day's tenth record is delivered.
type fakeLake struct {
	n          []int
	failAfter  map[int]int
	atRecord10 func()
}

func (l fakeLake) days() []time.Time {
	out := make([]time.Time, len(l.n))
	for i := range out {
		out[i] = day0.AddDate(0, 0, i)
	}
	return out
}

func (l fakeLake) ReadDayCols(day time.Time, sc flowrec.ColScan, fn func(*flowrec.Record) error) error {
	i := int(day.Sub(day0).Hours() / 24)
	if l.n[i] < 0 {
		return fmt.Errorf("%w: %s", flowrec.ErrNoDay, day.Format("2006-01-02"))
	}
	for j := 0; j < l.n[i]; j++ {
		if k, ok := l.failAfter[i]; ok && j == k {
			return fmt.Errorf("torn gzip: %w", flowrec.ErrCorrupt)
		}
		rec := flowrec.Record{Start: day, SubID: uint32(j), BytesDown: 100, BytesUp: 10}
		if !sc.Pred.Match(&rec) {
			continue
		}
		if err := fn(&rec); err != nil {
			return err
		}
		if j == 9 && l.atRecord10 != nil {
			l.atRecord10()
		}
	}
	return nil
}

func TestSetSrvPortIsStrict(t *testing.T) {
	for _, bad := range []string{"443,80", "443abc", "443-", "-443", "80-90x", "90-80", " 443", "443 ", "+443", "65536", "1-65536", "a", "-"} {
		var f Filter
		if err := f.SetSrvPort(bad); err == nil || f.HasSrvPort {
			t.Errorf("SetSrvPort(%q) = %v with %+v; want an error and no filter", bad, err, f)
		}
	}
	for in, want := range map[string][2]uint16{"443": {443, 443}, "6881-6999": {6881, 6999}, "0-65535": {0, 65535}} {
		var f Filter
		if err := f.SetSrvPort(in); err != nil || !f.HasSrvPort || f.SrvPortLo != want[0] || f.SrvPortHi != want[1] {
			t.Errorf("SetSrvPort(%q) = %v with %+v", in, err, f)
		}
	}
	f := Filter{HasSrvPort: true, SrvPortLo: 1, SrvPortHi: 2}
	if err := f.SetSrvPort(""); err != nil || f.HasSrvPort {
		t.Errorf("SetSrvPort(\"\") = %v with %+v; want the filter cleared", err, f)
	}
	if err := f.SetTech("dsl"); err == nil {
		t.Error("SetTech(dsl) accepted")
	}
}

// TestErrorTable: an outage is skipped, damage is named and contributes
// nothing to a summary, and the same damage is fatal to an export.
func TestErrorTable(t *testing.T) {
	lake := fakeLake{n: []int{5, 7, -1, 2}, failAfter: map[int]int{1: 3}}
	res, err := Run(context.Background(), lake, classify.Default(), Query{Days: lake.days()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScannedDays != 2 || len(res.FailedDays) != 1 || res.FailedDays[0] != "2016-04-02" {
		t.Errorf("ScannedDays %d FailedDays %v, want 2 and the second day", res.ScannedDays, res.FailedDays)
	}
	if res.Scanned != 7 || res.Matched != 7 || res.Visited != 10 {
		t.Errorf("Scanned/Matched/Visited = %d/%d/%d, want 7/7/10 (the failed day's 3-record prefix is visited, never reported)",
			res.Scanned, res.Matched, res.Visited)
	}
	if want := []SvcRow{{Service: "(unclassified)", Flows: 7, DownBytes: 700, UpBytes: 70}}; len(res.Services) != 1 || res.Services[0] != want[0] {
		t.Errorf("Services = %+v, want %+v", res.Services, want)
	}

	var out bytes.Buffer
	var flushed []int // rows on the wire at each DayDone
	res, err = Run(context.Background(), lake, classify.Default(), Query{Days: lake.days(), CSV: &out,
		DayDone: func() { flushed = append(flushed, rows(&out)) }})
	if !errors.Is(err, flowrec.ErrCorrupt) || len(res.FailedDays) != 1 || res.ScannedDays != 1 {
		t.Errorf("export over damage: err %v, result %+v; want the corruption error naming the day after one clean day", err, res)
	}
	if len(flushed) != 1 || flushed[0] != 5 || rows(&out) != 8 {
		t.Errorf("export flushed %v at day ends and %d rows in all; want [5] and 8 (the damaged day's clean prefix of 3 goes out before the failure)",
			flushed, rows(&out))
	}
}

// rows counts the data rows written so far.
func rows(csv *bytes.Buffer) int { return bytes.Count(csv.Bytes(), []byte("\n")) - 1 }

func TestLimitAndFilters(t *testing.T) {
	lake := fakeLake{n: []int{4, 4}}
	export := func(limit int, f Filter) (Result, int) {
		var out bytes.Buffer
		res, err := Run(context.Background(), lake, classify.Default(), Query{Days: lake.days(), Filter: f, Limit: limit, CSV: &out})
		if err != nil {
			t.Fatal(err)
		}
		return res, rows(&out)
	}
	if res, n := export(5, Filter{}); !res.Truncated || n != 5 || res.ScannedDays != 2 {
		t.Errorf("limit 5 of 8: %+v exported %d; want truncated after 5, in the second day", res, n)
	}
	// Exactly at the cap nothing was left unread, so nothing was cut.
	if res, n := export(8, Filter{}); res.Truncated || n != 8 {
		t.Errorf("limit 8 of 8: %+v exported %d; want everything, not truncated", res, n)
	}
	if res, n := export(0, Filter{HasSub: true, SubID: 2}); res.Scanned != 8 || res.Matched != 2 || n != 2 {
		t.Errorf("sub filter: %+v exported %d; want 2 of 8", res, n)
	}
	if res, _ := export(0, Filter{Services: []classify.Service{"Netflix"}}); res.Matched != 0 || len(res.Services) != 0 {
		t.Errorf("service filter over unclassified records matched: %+v", res)
	}
}

var errSink = errors.New("client went away")

// brokenSink fails every write (the CSV writer buffers, so the failure
// surfaces a few dozen rows into the first day).
type brokenSink struct{}

func (brokenSink) Write([]byte) (int, error) { return 0, errSink }

// TestSinkAndContextErrorsAreNotDamage: a broken sink or a cancelled
// context ends the run without blaming the day being read.
func TestSinkAndContextErrorsAreNotDamage(t *testing.T) {
	lake := fakeLake{n: []int{3000, 3000}}
	res, err := Run(context.Background(), lake, classify.Default(), Query{Days: lake.days(), CSV: brokenSink{}})
	if !errors.Is(err, errSink) || len(res.FailedDays) != 0 {
		t.Errorf("sink failure: err %v FailedDays %v; want the sink's error and no failed day", err, res.FailedDays)
	}

	// The reader itself never looks at the context; only the engine's
	// every-1,024-records check can stop it.
	ctx, cancel := context.WithCancel(context.Background())
	lake.atRecord10 = cancel
	res, err = Run(ctx, lake, classify.Default(), Query{Days: lake.days()})
	if !errors.Is(err, context.Canceled) || len(res.FailedDays) != 0 {
		t.Errorf("cancelled: err %v FailedDays %v", err, res.FailedDays)
	}
	if res.Visited != 1024 {
		t.Errorf("cancelled scan visited %d records, want it to stop at the 1,024-record check", res.Visited)
	}
}
