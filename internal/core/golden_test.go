package core

// Golden-figure regression corpus: every experiment (paper registry
// plus extensions) rendered at one small fixed simnet seed, compared
// byte-for-byte against testdata/golden/. Any change to classification,
// aggregation, sampling or formatting shows up as a readable text diff
// rather than a silent drift in the figures. Regenerate intentionally
// with `make golden` (go test -run TestGoldenFigures -update-golden).

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simnet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from current output")

// goldenConfig pins the corpus: one seed, a tiny population, sparse
// stride. Changing any of these invalidates every golden file, so
// they are deliberately separate from the other test configs.
func goldenConfig() Config {
	return Config{
		Seed: 424242, Scale: simnet.Scale{ADSL: 8, FTTH: 4},
		Stride: 240, Workers: 2,
	}
}

func TestGoldenFigures(t *testing.T) {
	p := New(goldenConfig())
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	registered := make(map[string]bool)
	for _, e := range AllExperiments() {
		registered[e.ID+".txt"] = true
		var buf bytes.Buffer
		if err := e.Run(context.Background(), p, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		path := filepath.Join(dir, e.ID+".txt")
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run `make golden`): %v", e.ID, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: output diverges from %s (regenerate with `make golden` if intentional)", e.ID, path)
		}
	}
	// A renamed or removed experiment must not leave its golden file
	// behind.
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !registered[filepath.Base(f)] {
			t.Errorf("%s: no registered experiment renders it (delete it)", f)
		}
	}
}
