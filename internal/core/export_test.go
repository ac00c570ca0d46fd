package core

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/simnet"
)

// exportFiles are the tables ExportData writes: one per experiment.
func exportFiles() []string {
	var names []string
	for _, e := range AllExperiments() {
		names = append(names, e.ID+".csv")
	}
	return names
}

func TestExportData(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 99, Scale: simnet.Scale{ADSL: 10, FTTH: 5}, Stride: 180, Workers: 4})
	if err := p.ExportData(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := exportFiles()
	if len(entries) != len(files) {
		t.Errorf("export wrote %d files, want %d (%v)", len(entries), len(files), files)
	}
	for _, name := range files {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
	}

	// Spot-check fig8: per-month shares sum to ~100 (or 0 for months
	// before the web existed in the sample — there are none).
	f, err := os.Open(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]float64)
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad share %q: %v", row[2], err)
		}
		sums[row[0]] += v
	}
	for month, sum := range sums {
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: protocol shares sum to %.2f", month, sum)
		}
	}
}

// TestExportByteIdentical guards the interning refactor's contract:
// two pipelines with the same seed must export byte-for-byte identical
// figure tables — the ID-indexed aggregator may not perturb ordering
// or values anywhere in the output.
func TestExportByteIdentical(t *testing.T) {
	cfg := Config{Seed: 99, Scale: simnet.Scale{ADSL: 10, FTTH: 5}, Stride: 180, Workers: 4}
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := New(cfg).ExportData(context.Background(), dirA); err != nil {
		t.Fatal(err)
	}
	if err := New(cfg).ExportData(context.Background(), dirB); err != nil {
		t.Fatal(err)
	}
	for _, name := range exportFiles() {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between same-seed runs", name)
		}
	}
}
