package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// Data-table export. The paper publishes the numbers behind its
// figures ("Data tables used to generate these figures ... can be
// downloaded from smartdata.polito.it"); ExportData is this
// repository's equivalent: machine-readable CSVs per figure.

// ExportData writes every experiment's Figure rows as {id}.csv into
// dir, over the experiment's default days — byte for byte the body of
// GET /v1/figures/{id}?format=csv on the same configuration.
func (p *Pipeline) ExportData(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: export: %w", err)
	}
	for _, e := range AllExperiments() {
		if e.Figure == nil {
			continue
		}
		rows, err := e.Figure.Rows(ctx, p, FigureParams{}, e.Days(p.Stride()))
		var body []byte
		if err == nil {
			body, err = EncodeCSV(rows)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.ID+".csv"), body, 0o644)
		}
		if err != nil {
			return fmt.Errorf("core: export %s: %w", e.ID, err)
		}
	}
	return nil
}
