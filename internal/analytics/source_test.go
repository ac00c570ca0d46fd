package analytics

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/flowrec"
)

// TestSourceContract holds every Source implementation — StoreSource
// over a v1 day and over a v3 day, FuncSource over a generator — to the
// one contract stage one relies on: the same records for the same
// ColScan, the predicate honoured, cancellation cutting a day short
// within 4096 records, and a missing day reading as ErrNoData.
func TestSourceContract(t *testing.T) {
	const n = 20000 // several v3 blocks, several cancellation checks
	recs := make([]flowrec.Record, n)
	for i := range recs {
		tech := flowrec.TechADSL
		if i%3 == 0 {
			tech = flowrec.TechFTTH
		}
		recs[i] = *mkRec(uint32(i%500), tech, "example.org", uint64(1000+i), uint64(i))
		recs[i].Start = testDay.Add(time.Duration(i) * time.Second)
		recs[i].SrvPort = uint16(i % 1000)
	}
	sources := map[string]Source{
		"func": FuncSource(func(day time.Time, fn func(*flowrec.Record)) error {
			if !day.Equal(testDay) {
				return ErrNoData
			}
			var buf flowrec.Record // reused, like a decoder's
			for i := range recs {
				buf = recs[i]
				fn(&buf)
			}
			return nil
		}),
	}
	for _, format := range []flowrec.Format{flowrec.FormatV1, flowrec.FormatV3} {
		store, err := flowrec.OpenStoreFormat(t.TempDir(), format)
		if err != nil {
			t.Fatal(err)
		}
		w, err := store.CreateDay(testDay)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sources["store-"+format.String()] = StoreSource{Store: store}
	}

	// The projected scan: sources may deliver more columns than asked
	// (v1 and generators always do), so compare what was asked for.
	type row struct {
		sub  uint32
		down uint64
		tech flowrec.AccessTech
		port uint16
	}
	narrow := flowrec.ColScan{
		Cols: flowrec.Cols(flowrec.ColSubID, flowrec.ColBytesDown),
		Pred: &flowrec.Pred{HasTech: true, Tech: flowrec.TechFTTH, HasSrvPort: true, SrvPortLo: 100, SrvPortHi: 499},
	}
	var wantNarrow []row
	for i := range recs {
		if r := &recs[i]; r.Tech == flowrec.TechFTTH && r.SrvPort >= 100 && r.SrvPort <= 499 {
			wantNarrow = append(wantNarrow, row{r.SubID, r.BytesDown, r.Tech, r.SrvPort})
		}
	}
	if len(wantNarrow) == 0 || len(wantNarrow) == n {
		t.Fatalf("degenerate predicate: %d of %d match", len(wantNarrow), n)
	}

	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			var full []flowrec.Record
			err := src.Records(context.Background(), testDay, flowrec.ColScan{}, func(r *flowrec.Record) {
				full = append(full, *r)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, recs) {
				t.Errorf("full scan: %d records, want %d (or content mismatch)", len(full), n)
			}

			var got []row
			err = src.Records(context.Background(), testDay, narrow, func(r *flowrec.Record) {
				got = append(got, row{r.SubID, r.BytesDown, r.Tech, r.SrvPort})
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantNarrow) {
				t.Errorf("projected predicate scan: %d records, want %d (or content mismatch)", len(got), len(wantNarrow))
			}

			const cancelAt = 5000
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			err = src.Records(ctx, testDay, flowrec.ColScan{}, func(*flowrec.Record) {
				if seen++; seen == cancelAt {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled mid-day: err = %v, want context.Canceled", err)
			}
			if seen < cancelAt || seen > cancelAt+4096 {
				t.Errorf("cancelled at record %d, delivery stopped at %d, want within 4096", cancelAt, seen)
			}

			err = src.Records(context.Background(), testDay.AddDate(0, 0, 1), flowrec.ColScan{}, func(*flowrec.Record) {
				t.Error("a missing day delivered a record")
			})
			if !errors.Is(err, ErrNoData) {
				t.Errorf("missing day: err = %v, want ErrNoData", err)
			}
		})
	}
}
