package main

// The scan-equivalence tier (make scanequiv): /v1/scan's three modes
// and this command are front-ends over one engine, so over one lake
// they must agree — same tallies, same rows in the same order, same
// damaged days — whatever the decode width. The lake is small but
// awkward on purpose: row-format and columnar days side by side, one
// day truncated mid-file, one day missing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowrec"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/simnet"
)

var (
	lakeStart = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	// healthy, healthy, truncated, missing, healthy.
	lakeFormats = []string{"v1", "v3", "v1", "", "v3"}
	damagedDay  = "2016-04-03"
)

// buildLake writes the mixed lake and returns its directory. At this
// scale a day is ~20k records — three columnar blocks, so a decode
// width of 4 really does reorder work.
func buildLake(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "lake")
	gen := core.New(core.Config{Seed: 7, Scale: simnet.Scale{ADSL: 160, FTTH: 80}})
	for i, name := range lakeFormats {
		if name == "" {
			continue
		}
		format, err := flowrec.ParseFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		store, err := flowrec.OpenStoreFormat(dir, format)
		if err != nil {
			t.Fatal(err)
		}
		day := []time.Time{lakeStart.AddDate(0, 0, i)}
		if _, err := gen.GenerateStore(context.Background(), core.NewDiskStorage(store, ""), day); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "2016", "04", "flows-20160403.efl.gz")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()*3/5); err != nil {
		t.Fatal(err)
	}
	// The damage must bite mid-file: a truncated day that delivered no
	// records before failing would prove nothing about prefix leaks.
	store, err := flowrec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	prefix := 0
	err = store.ReadDay(lakeStart.AddDate(0, 0, 2), func(*flowrec.Record) error { prefix++; return nil })
	if err == nil || prefix == 0 {
		t.Fatalf("truncated day read %d records, err %v; want a non-empty prefix then an error", prefix, err)
	}
	return dir
}

// edgequery runs the command in-process.
func edgequery(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// get fetches a URL and drains the body so trailers are populated.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestScanFrontEndsAgree(t *testing.T) {
	lake := buildLake(t)
	store, err := flowrec.OpenStore(lake)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(core.New(core.Config{Store: store}), serve.Options{}).Handler())
	defer ts.Close()

	summary := func(from, to, filter string) serve.ScanResponse {
		t.Helper()
		resp, body := get(t, fmt.Sprintf("%s/v1/scan?from=%s&to=%s%s", ts.URL, from, to, filter))
		var sr serve.ScanResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sr) != nil {
			t.Fatalf("summary %s..%s%s: status %d: %s", from, to, filter, resp.StatusCode, body)
		}
		return sr
	}
	// One classified service that is certainly in the lake, for the
	// service= case.
	popular := ""
	for _, row := range summary("2016-04-01", "2016-04-01", "").Services {
		if row.Service != "(unclassified)" {
			popular = row.Service
			break
		}
	}
	if popular == "" {
		t.Fatal("no classified service in the lake")
	}

	filters := []struct {
		name, url string
		flags     []string
	}{
		{"unfiltered", "", nil},
		{"pushdown", "&tech=ftth&srvport=80-443", []string{"-tech", "ftth", "-srvport", "80-443"}},
		{"service", "&service=" + popular, []string{"-service", popular}},
		{"proto", "&proto=QUIC", []string{"-proto", "QUIC"}},
	}
	for _, f := range filters {
		t.Run(f.name, func(t *testing.T) {
			// Summary over the whole lake: the truncated day is named and
			// contributes nothing, the missing day is silently an outage.
			all := summary("2016-04-01", "2016-04-05", f.url)
			head := summary("2016-04-01", "2016-04-02", f.url)
			tail := summary("2016-04-04", "2016-04-05", f.url)
			if all.ScannedDays != 3 || len(all.FailedDays) != 1 || all.FailedDays[0] != damagedDay {
				t.Errorf("HTTP summary: scanned_days %d failed_days %v, want 3 and [%s]", all.ScannedDays, all.FailedDays, damagedDay)
			}
			if all.Matched == 0 {
				t.Fatal("filter matches nothing; the case proves nothing")
			}
			if all.Scanned != head.Scanned+tail.Scanned || all.Matched != head.Matched+tail.Matched {
				t.Errorf("damaged day's prefix leaked: whole lake %d/%d, healthy days %d/%d",
					all.Scanned, all.Matched, head.Scanned+tail.Scanned, head.Matched+tail.Matched)
			}
			var cells [][]string
			for _, r := range all.Services {
				cells = append(cells, []string{r.Service, fmt.Sprint(r.Flows),
					report.MB(float64(r.DownBytes)), report.MB(float64(r.UpBytes))})
			}
			var want bytes.Buffer
			if err := report.Table(&want, []string{"service", "flows", "down MB", "up MB"}, cells); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []string{"1", "4"} {
				args := append([]string{"-store", lake, "-from", "2016-04-01", "-to", "2016-04-05",
					"-summary", "-shards", shards}, f.flags...)
				status, stdout, stderr := edgequery(args...)
				if status != 1 || !strings.Contains(stderr, damagedDay) {
					t.Errorf("-shards %s summary over a damaged day: exit %d, stderr %q; want 1 naming %s", shards, status, stderr, damagedDay)
				}
				if stdout != want.String() {
					t.Errorf("-shards %s summary differs from /v1/scan:\n%s\nwant:\n%s", shards, stdout, want.String())
				}
				if tally := fmt.Sprintf("scanned %d records, matched %d\n", all.Scanned, all.Matched); !strings.Contains(stderr, tally) {
					t.Errorf("-shards %s stderr %q lacks %q", shards, stderr, tally)
				}
			}

			// Record exports over the healthy spans (the second one starts
			// on the missing day): buffered, streamed and both decode
			// widths of the command, byte for byte.
			for _, span := range [][2]string{{"2016-04-01", "2016-04-02"}, {"2016-04-04", "2016-04-05"}} {
				q := fmt.Sprintf("%s/v1/scan?from=%s&to=%s%s&format=csv", ts.URL, span[0], span[1], f.url)
				resp, buffered := get(t, q+"&limit=1000000")
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Scan-Truncated") != "" {
					t.Fatalf("buffered CSV %v: status %d truncated %q", span, resp.StatusCode, resp.Header.Get("X-Scan-Truncated"))
				}
				resp, streamed := get(t, q+"&stream=true")
				if resp.Trailer.Get("X-Scan-Complete") != "true" {
					t.Errorf("streamed CSV %v: trailers %v", span, resp.Trailer)
				}
				if !bytes.Equal(buffered, streamed) {
					t.Errorf("streamed CSV %v differs from buffered (%d vs %d bytes)", span, len(streamed), len(buffered))
				}
				if rows := bytes.Count(buffered, []byte("\n")) - 1; rows < 1 {
					t.Fatalf("CSV %v has %d rows; the case proves nothing", span, rows)
				}
				for _, shards := range []string{"1", "4"} {
					args := append([]string{"-store", lake, "-from", span[0], "-to", span[1],
						"-csv", "-", "-shards", shards}, f.flags...)
					status, stdout, stderr := edgequery(args...)
					if status != 0 {
						t.Errorf("-shards %s CSV %v: exit %d: %s", shards, span, status, stderr)
					}
					if stdout != string(buffered) {
						t.Errorf("-shards %s CSV %v differs from /v1/scan (%d vs %d bytes)", shards, span, len(stdout), len(buffered))
					}
				}
			}

			// A record export across the damaged day fails everywhere —
			// dropping its rows would pass an incomplete extract off as
			// complete.
			q := fmt.Sprintf("%s/v1/scan?from=2016-04-01&to=2016-04-05%s&format=csv", ts.URL, f.url)
			if resp, body := get(t, q+"&limit=1000000"); resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("buffered CSV over the damaged day: status %d: %.80s", resp.StatusCode, body)
			}
			if resp, _ := get(t, q+"&stream=true"); resp.Trailer.Get("X-Scan-Error") == "" || resp.Trailer.Get("X-Scan-Complete") != "" {
				t.Errorf("streamed CSV over the damaged day: trailers %v", resp.Trailer)
			}
			args := append([]string{"-store", lake, "-from", "2016-04-01", "-to", "2016-04-05", "-csv", "-"}, f.flags...)
			if status, _, stderr := edgequery(args...); status != 1 || !strings.Contains(stderr, damagedDay) {
				t.Errorf("CSV over the damaged day: exit %d, stderr %q; want 1 naming %s", status, stderr, damagedDay)
			}
		})
	}
}

// TestBadCommandLines: a filter that half-parses must not run as a
// broader query, and filters -rollup cannot honour must not be dropped
// without a word. All exit 2 before anything is read or printed.
func TestBadCommandLines(t *testing.T) {
	lake := t.TempDir()
	base := []string{"-store", lake, "-from", "2016-04-01", "-summary"}
	for _, extra := range [][]string{
		{"-srvport", "443,80"},
		{"-srvport", "443abc"},
		{"-srvport", "443-"},
		{"-srvport", "80-90x"},
		{"-srvport", "90-80"},
		{"-srvport", " 443"},
		{"-tech", "dsl"},
		{"-from", "yesterday"},
		{"-faults", "nonsense"},
		{"-rollup", t.TempDir(), "-service", "Netflix"},
		{"-rollup", t.TempDir(), "-srvport", "443"},
		{"-rollup", t.TempDir(), "-sub", "3"},
		{"-nosuchflag"},
	} {
		status, stdout, stderr := edgequery(append(append([]string{}, base...), extra...)...)
		if status != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output, a message", extra, status, stdout, stderr)
		}
	}
	if status, _, stderr := edgequery("-from", "2016-04-01"); status != 2 {
		t.Errorf("missing -store: exit %d (%s), want 2", status, stderr)
	}
	if status, _, stderr := edgequery("-store", filepath.Join(lake, "nope", "\x00"), "-from", "2016-04-01"); status != 1 {
		t.Errorf("unopenable store: exit %d (%s), want 1", status, stderr)
	}
}

// TestRollupQuery: the tier answer works through the shared config
// builder, unfiltered. Each window's flows and byte columns are the
// sums of a flat day fold over its source days, and the whole table is
// held to testdata/rollup_week.txt — the output of the build that still
// kept a merged window aggregate, so summing day rows changed no digit.
func TestRollupQuery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	store, err := flowrec.OpenStoreFormat(dir, flowrec.FormatV3)
	if err != nil {
		t.Fatal(err)
	}
	gen := core.New(core.Config{Seed: 7, Scale: simnet.Scale{ADSL: 24, FTTH: 12}})
	week := core.RangeDays(time.Date(2016, 4, 4, 0, 0, 0, 0, time.UTC), time.Date(2016, 4, 10, 0, 0, 0, 0, time.UTC), 1)
	if _, err := gen.GenerateStore(context.Background(), core.NewDiskStorage(store, ""), week); err != nil {
		t.Fatal(err)
	}
	status, stdout, stderr := edgequery("-store", dir, "-from", "2016-04-03", "-to", "2016-04-10", "-rollup", t.TempDir())
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	if !strings.Contains(stderr, "1 edge day(s)") {
		t.Errorf("stderr %q does not count the edge day", stderr)
	}

	aggs, err := core.New(core.Config{Store: store}).Aggregate(context.Background(), week)
	if err != nil {
		t.Fatal(err)
	}
	var flows, down, up uint64
	for _, a := range aggs {
		flows += a.Flows
		down += a.TotalDown
		up += a.TotalUp
	}
	row := strings.Fields(strings.Split(stdout, "\n")[2])
	if want := []string{"week", "2016-04-04", "7", fmt.Sprint(flows), report.MB(float64(down)), report.MB(float64(up))}; !reflect.DeepEqual(row, want) {
		t.Errorf("rollup row %q, want the flat fold's %q", row, want)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "rollup_week.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(golden) {
		t.Errorf("rollup table changed:\n%s\nwant:\n%s", stdout, golden)
	}
}
