package analytics

import "repro/internal/flowrec"

// Column requirements of stage one. Each accumulator needs a known
// column set; a columnar (v3) store decodes only the requested columns
// and never touches the rest. The sets here are a correctness
// contract, not a hint: the aggregator gates its accumulators on the
// same set (see NewAggregatorCols), so a v1 store — which always
// decodes every field — produces byte-identical aggregates to a pruned
// v3 scan. An under-declared set therefore fails loudly (a missing
// accumulator) rather than silently aggregating zeros.

// BaseAggColumns is what every aggregate needs regardless of gating:
// totals and protocol/service byte shares (BytesUp/BytesDown, Web,
// ServerName for classification, Tech for the per-tech splits) plus
// Client, which the RTT reservoir's flow-identity hash reads.
// NormalizeCols always adds these.
const BaseAggColumns = flowrec.ColumnSet(1<<flowrec.ColClient |
	1<<flowrec.ColTech |
	1<<flowrec.ColWeb |
	1<<flowrec.ColServerName |
	1<<flowrec.ColBytesUp |
	1<<flowrec.ColBytesDown)

// Per-consumer sets, named for what they unlock in the DayAgg.
const (
	// ColsSubscribers unlocks the per-subscription map (Subs):
	// active-subscriber counts, per-sub volumes, per-sub service usage.
	// Figures 2, 3, 5, 6, 7, 9, the active series and the weekly
	// extension all live off it.
	ColsSubscribers = BaseAggColumns | 1<<flowrec.ColSubID

	// ColsTimeBins adds the 10-minute down-bins (Figure 4); the figure
	// also reads observed-subscriber counts, hence ColsSubscribers.
	ColsTimeBins = ColsSubscribers | 1<<flowrec.ColStart

	// ColsRTT unlocks the per-service RTT reservoirs (Figure 10). The
	// deterministic bottom-k sample hashes flow identity — Client,
	// Server, ports, SubID, Start (flowSampleHash) — so every hashed
	// field must be decoded for the sample, and hence the figure, to be
	// byte-identical across formats.
	ColsRTT = BaseAggColumns |
		1<<flowrec.ColServer |
		1<<flowrec.ColCliPort |
		1<<flowrec.ColSrvPort |
		1<<flowrec.ColSubID |
		1<<flowrec.ColStart |
		1<<flowrec.ColRTTMin |
		1<<flowrec.ColRTTSamples

	// ColsInfra unlocks the server-address inventory and the domain
	// drill-down (Figure 11).
	ColsInfra = BaseAggColumns | 1<<flowrec.ColServer

	// ColsQUIC unlocks the QUIC version counters (the quicver
	// extension).
	ColsQUIC = BaseAggColumns | 1<<flowrec.ColQUICVer
)

// AggregateColumns is the union every Aggregator accumulator needs —
// the one width core's pipeline folds every day at, so a day is read
// once whatever mix of figures asks for it. Still 14 of 22
// columns: ports aside (the RTT sample hash), no aggregate reads
// Proto, NameSrc, Duration, packet counts, ALPN, or the RTT avg/max.
const AggregateColumns = ColsSubscribers | ColsTimeBins | ColsRTT | ColsInfra | ColsQUIC

// NormalizeCols maps a requested column set onto what the aggregator
// will actually be fed: zero (no preference) means every column, and
// any explicit set is widened by the base columns no aggregate can do
// without.
func NormalizeCols(cols flowrec.ColumnSet) flowrec.ColumnSet {
	if cols == 0 {
		return flowrec.AllColumns
	}
	return (cols | BaseAggColumns).Norm()
}
