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
// repository's equivalent: machine-readable CSVs per experiment.

// ExportData writes every experiment's data table as {id}.csv into
// dir, over the experiment's default days. A served figure's file is
// byte for byte the body of GET /v1/figures/{id}?format=csv on the
// same configuration.
func (p *Pipeline) ExportData(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: export: %w", err)
	}
	for _, e := range AllExperiments() {
		rows, err := e.DataRows(ctx, p, FigureParams{}, e.Days(p.Stride()))
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
