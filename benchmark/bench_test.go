package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// The smoke tier: every workload at the smoke population finishes,
// passes its own output checks and emits exactly the metrics
// BENCHMARK.json lists, and the counts that must repeat do repeat.

func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	dir := t.TempDir()
	return config{
		workload: workload, seed: 7, seconds: 0.6, trace: trace, size: scales["smoke"],
		tmpBase: filepath.Join(dir, "tmp"), traceOut: filepath.Join(dir, "spans.jsonl"),
	}
}

func runSmoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := runWorkload(smokeConfig(t, workload, trace))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, c := range res.win.checks {
		if !c.ok {
			t.Errorf("%s: check %q failed: %s", workload, c.name, c.detail)
		}
	}
	if !res.correct || res.win.failed != 0 || res.win.attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.correct, res.win.attempted, res.win.failed)
	}
	return res
}

func wantMetrics(t *testing.T, workload string, got map[string]metricValue, specs []metricSpec) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", workload, len(got), len(specs))
	}
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, v.Unit, m.Unit)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	hashes := map[string]string{}
	for _, wl := range workloadSpecs {
		first, second := runSmoke(t, wl.Name, false), runSmoke(t, wl.Name, false)
		got := first.summary().Metrics
		wantMetrics(t, wl.Name, got, endToEnd)
		for name, v := range got {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, name, v.Value)
			}
		}
		if !reflect.DeepEqual(first.win.counts, second.win.counts) || len(first.win.counts) == 0 {
			t.Errorf("%s: counts differ between two runs of one seed:\n%v\n%v", wl.Name, first.win.counts, second.win.counts)
		}
		hashes[wl.Name] = first.win.reportHash
	}
	// The two batch workloads share a work unit because they produce
	// the same report: one from records, one from derived state.
	if hashes["batch_scan"] == "" || hashes["batch_scan"] != hashes["batch_rerun"] {
		t.Errorf("batch_scan hashed %q, batch_rerun %q", hashes["batch_scan"], hashes["batch_rerun"])
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, wl := range workloadSpecs {
		res := runSmoke(t, wl.Name, true)
		wantMetrics(t, wl.Name, res.summary().Metrics, perLayer)
		if wl.Name == "batch_rerun" && res.metrics["flowrec.window_self_ms"] != 0 {
			t.Errorf("batch_rerun spent %v ms in flowrec; the rerun must decode nothing", res.metrics["flowrec.window_self_ms"])
		}

		f, err := os.Open(res.traceFile)
		if err != nil {
			t.Fatal(err)
		}
		spans := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span file line %d: %v", wl.Name, spans+1, err)
			}
			if s.Name == "" || s.Workload != wl.Name || s.End < s.Start {
				t.Errorf("%s: malformed span %+v", wl.Name, s)
			}
			spans++
		}
		f.Close()
		if spans == 0 {
			t.Errorf("%s: span file is empty", wl.Name)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the tables in
// spec.go one contract, and holds both to the comparison driver's
// naming rules.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(benchmarkSpec())
	json.Unmarshal(b, &fromCode)
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run ./benchmark -print-spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloadSpecs {
		use(wl.Name)
		if len(wl.Why) > 200 || workloads[wl.Name] == nil {
			t.Errorf("workload %s: why is %d chars (max 200), implemented=%v", wl.Name, len(wl.Why), workloads[wl.Name] != nil)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || m == metricSpec{"setup_s", "s", "lower", m.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d bytes", len(perLayer), len(endToEnd), len(raw))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{workload: "t", t0: time.Now()}
	tr.spans = []span{
		{ID: 1, Name: "driver.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "report.run", Start: 10, End: 90},
		// Two overlapping reads on two goroutines, one running past
		// its parent: the union inside the parent is [20,70].
		{ID: 3, Parent: 2, Name: "flowrec.read_day", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "flowrec.read_day", Start: 40, End: 70},
		{ID: 5, Parent: 2, Name: "core.load_agg", Start: 80, End: 95},
		{ID: 6, Parent: 1, Name: "flowrec.read_day", Start: 5, End: 0}, // dropped
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"driver": 20, "report": 20, "flowrec": 70, "core": 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}
