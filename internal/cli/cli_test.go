package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// testdata/help/<binary>.txt is the binary's -h output (minus the
// path-bearing "Usage of" line) captured at the commit before the flag
// surface moved into this package. Deliberate edits since: edgequery
// -shards, whose old text ("CSV output forces 1") stopped being true
// when the flag became the ordered block-decode width; and -shards on
// edgereport, edgeserve and edgegen, which became that same width when
// the per-day shard aggregators went; the stage-one memory-budget flag,
// gone from those three with the spill path; and edgeprobe's probe
// fan-out, renamed from -shards to -probes so -shards is the decode
// width everywhere.
func helpGolden(t *testing.T, bin string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "help", bin+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSharedFlagsKeepNameDefaultUsage: every shared flag a surface
// registers renders (name, type, default, usage) exactly as that
// binary's help always showed it.
func TestSharedFlagsKeepNameDefaultUsage(t *testing.T) {
	for bin, specs := range surfaces {
		fs := flag.NewFlagSet(bin, flag.ContinueOnError)
		var out bytes.Buffer
		fs.SetOutput(&out)
		Register(fs, bin)
		fs.PrintDefaults()
		golden := helpGolden(t, bin)
		blocks := strings.Split(strings.TrimPrefix(out.String(), "  -"), "\n  -")
		if len(blocks) != len(specs) {
			t.Errorf("%s: %d flags rendered, surface lists %d", bin, len(blocks), len(specs))
		}
		for _, b := range blocks {
			if block := "  -" + strings.TrimSuffix(b, "\n") + "\n"; !strings.Contains(golden, block) {
				t.Errorf("%s: flag moved; this is not in its help golden:\n%s", bin, block)
			}
		}
	}
}

// TestBinariesHelpUnchanged builds every command and holds its whole
// -h output — shared flags and the binary's own — to the golden.
func TestBinariesHelpUnchanged(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build repro/cmd/...: %v\n%s", err, out)
	}
	built, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != len(surfaces) {
		t.Errorf("%d binaries built, %d flag surfaces declared", len(built), len(surfaces))
	}
	for _, e := range built {
		out, err := exec.Command(filepath.Join(dir, e.Name()), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v", e.Name(), err)
		}
		_, help, _ := strings.Cut(string(out), "\n")
		if golden := helpGolden(t, e.Name()); help != golden {
			t.Errorf("%s -h changed:\n%s\nwant:\n%s", e.Name(), help, golden)
		}
	}
}

func TestConfig(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(rules, []byte("suffix netflix.com Netflix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(bin string, args ...string) *Flags {
		t.Helper()
		fs := flag.NewFlagSet(bin, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs, bin)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		return f
	}

	// Bad values are usage errors (exit 2), unreadable files plain ones
	// (exit 1) — and both come back as errors, never as os.Exit.
	for _, c := range []struct {
		args []string
		exit int
	}{
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-scale", ""}, 2},
		{[]string{"-faults", "readday:p=2"}, 2},
		{[]string{"-faults", "nonsense"}, 2},
		{[]string{"-rules", filepath.Join(t.TempDir(), "missing")}, 1},
		{[]string{"-store", "/dev/null/lake"}, 1},
	} {
		_, err := parse("edgereport", c.args...).Config()
		if err == nil || ExitCode(err) != c.exit {
			t.Errorf("edgereport %v: err %v (exit %d), want exit %d", c.args, err, ExitCode(err), c.exit)
		}
	}
	if ExitCode(errors.New("disk on fire")) != 1 || ExitCode(Usagef("-out is required")) != 2 {
		t.Error("ExitCode: want 1 for plain errors, 2 for usage errors")
	}

	cfg, err := parse("edgereport").Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || cfg.Stride != 7 || !cfg.Degrade || cfg.Scale != (simnet.Scale{}) ||
		cfg.Store != nil || cfg.Classifier != nil || cfg.Faults != nil {
		t.Errorf("edgereport defaults: %+v", cfg)
	}

	lake := filepath.Join(t.TempDir(), "lake")
	cfg, err = parse("edgeserve", "-seed", "9", "-stride", "30", "-scale", "small", "-workers", "3", "-shards", "2",
		"-store", lake, "-rules", rules, "-aggcache", "/a", "-rollup", "/r", "-degrade=false",
		"-day-timeout", "2s", "-faults", "readday:p=0.5,transient").Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Stride != 30 || cfg.Scale != (simnet.Scale{ADSL: 60, FTTH: 30}) || cfg.Workers != 3 ||
		cfg.ShardsPerDay != 2 || cfg.Store == nil || cfg.Classifier == nil || cfg.AggCacheDir != "/a" ||
		cfg.RollupDir != "/r" || cfg.Degrade || cfg.DayTimeout != 2*time.Second || cfg.Faults == nil {
		t.Errorf("edgeserve full command line: %+v", cfg)
	}
	if cfg, err = parse("edgereport", "-scale", "large").Config(); err != nil || cfg.Scale != (simnet.Scale{ADSL: 1000, FTTH: 500}) {
		t.Errorf("-scale large: %+v, %v", cfg.Scale, err)
	}

	// A binary that registers neither -scale nor -degrade still builds a
	// valid config, and its own defaults hold (edgegen strides by 1).
	f := parse("edgegen", "-rollup", "/r")
	if cfg, err = f.Config(); err != nil || cfg.RollupDir != "/r" || cfg.Degrade || f.Stride != 1 {
		t.Errorf("edgegen: %+v stride %d, %v", cfg, f.Stride, err)
	}
}

func TestSpan(t *testing.T) {
	apr1 := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		from, to   string
		defTo      time.Time
		start, end time.Time
	}{
		{"", "", simnet.SpanEnd, simnet.SpanStart, simnet.SpanEnd},
		{"2016-04-01", "", simnet.SpanEnd, apr1, simnet.SpanEnd},
		{"2016-04-01", "", time.Time{}, apr1, apr1}, // no default end: a one-day span
		{"2016-04-01", "2016-04-03", time.Time{}, apr1, apr1.AddDate(0, 0, 2)},
	} {
		start, end, err := Span(c.from, c.to, simnet.SpanStart, c.defTo)
		if err != nil || !start.Equal(c.start) || !end.Equal(c.end) {
			t.Errorf("Span(%q, %q) = %v..%v, %v; want %v..%v", c.from, c.to, start, end, err, c.start, c.end)
		}
	}
	for _, bad := range [][2]string{{"April 1st", ""}, {"2016-04-01", "2016-4-3"}, {"2016-04-01T00:00:00Z", ""}} {
		if _, _, err := Span(bad[0], bad[1], simnet.SpanStart, simnet.SpanEnd); ExitCode(err) != 2 {
			t.Errorf("Span(%q, %q) = %v, want a usage error", bad[0], bad[1], err)
		}
	}
}
