package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
)

// The figure endpoints. The rows are the experiment's data rows,
// so tier selection, the shared agg cache and hot-day checkpoint
// serving apply unchanged; the serve-equivalence test tier holds the
// served, text and exported views equal on a golden lake.

// FigureResponse is the JSON envelope of /v1/figures/{name}.
type FigureResponse struct {
	Figure string `json:"figure"`
	Title  string `json:"title"`
	From   string `json:"from"`
	To     string `json:"to"`
	Stride int    `json:"stride"`
	Days   int    `json:"days"`
	// Tier names the read path: "rollup+day" when the rollup tier can
	// answer coarse windows, "day" for the flat per-day fold. Hot
	// (unsealed) days additionally serve from ingest checkpoints on
	// either path.
	Tier string `json:"tier"`
	Rows any    `json:"rows"`
}

// queryFigure answers GET /v1/figures/{name}.
func (s *Server) queryFigure(ctx context.Context, r *http.Request) (*result, error) {
	name := r.PathValue("name")
	e, known := core.Lookup(name)
	if !known {
		return nil, &errNotFound{msg: "unknown figure " + name}
	}
	fig := e.Figure
	if fig == nil {
		return nil, &errNotFound{msg: "experiment " + name + " has no figure endpoint (see /v1/experiments)"}
	}
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if err := checkParams(name, fig, q); err != nil {
		return nil, err
	}

	// The window: an explicit from/to range at the requested stride
	// (default 1), or the experiment's default days under the pipeline
	// stride. Every figure reads exactly its window's days (fig4's
	// fixed comparison months are its window), stamped before the run.
	var days []time.Time
	stride := s.p.Stride()
	if q.From.IsZero() {
		days = e.Days(stride)
	} else {
		stride = max(q.Stride, 1)
		days = core.RangeDays(q.From, q.To, stride)
	}
	// The envelope reports the step the window was built at: a default
	// window can be daily whatever the pipeline stride (active's month,
	// the Aprils of fig2, fig4 and fig10).
	if len(days) > 1 {
		stride = int(days[1].Sub(days[0]).Hours() / 24)
	}
	reads := s.readDays(days)
	rows, err := e.DataRows(ctx, s.p, core.FigureParams{
		Quantiles: q.Quantiles, Tech: q.Tech, Services: q.Services, Points: q.Points,
	}, days)
	if err != nil {
		return nil, err
	}
	var res *result
	if q.Format == "csv" {
		res = &result{contentType: "text/csv"}
		res.body, err = core.EncodeCSV(rows)
	} else {
		tier := "day"
		if fig.Tiered && s.p.RollupsEnabled() {
			tier = "rollup+day"
		}
		resp := FigureResponse{
			Figure: name,
			Title:  fig.Title,
			Stride: stride,
			Days:   len(days),
			Tier:   tier,
			Rows:   rows,
		}
		if len(days) > 0 {
			resp.From = days[0].Format("2006-01-02")
			resp.To = days[len(days)-1].Format("2006-01-02")
		}
		res, err = jsonResult(resp)
	}
	if err != nil {
		return nil, err
	}
	res.reads = reads
	return res, nil
}

// checkParams rejects parameters the figure does not consume:
// inapplicable parameters are 400s, not silently ignored.
func checkParams(id string, fig *core.Figure, q Query) error {
	switch {
	case fig.FixedRange && !q.From.IsZero():
		return badf("%s has a fixed comparison window; from/to do not apply", id)
	case q.Stride != 0 && q.From.IsZero():
		return badf("stride= requires from=")
	case len(q.Quantiles) > 0 && !fig.Quantiles:
		return badf("%s does not take quantiles=", id)
	case q.Tech != "" && !fig.Tech:
		return badf("%s does not take tech=", id)
	case len(q.Services) > 0 && !fig.Services:
		return badf("%s does not take service=", id)
	case q.Points != 0 && !fig.Points:
		return badf("%s does not take points=", id)
	case q.Proto != "" || q.HasSrvPort || q.Limit != 0 || q.Stream:
		return badf("proto/srvport/limit/stream apply to /v1/scan only")
	}
	return nil
}
