package flowrec

import "time"

// Column identity for the v3 columnar day format and for read-side
// projection. Every Record field has a fixed column ID; the IDs are
// part of the on-disk v3 layout (blocks store columns in ID order), so
// they must never be renumbered — append only.

// Column identifies one Record field.
type Column uint8

// The 22 record columns, in v3 block order.
const (
	ColClient Column = iota
	ColServer
	ColCliPort
	ColSrvPort
	ColProto
	ColTech
	ColWeb
	ColNameSrc
	ColSubID
	ColStart
	ColDuration
	ColPktsUp
	ColPktsDown
	ColBytesUp
	ColBytesDown
	ColServerName
	ColALPN
	ColQUICVer
	ColRTTMin
	ColRTTAvg
	ColRTTMax
	ColRTTSamples

	// NumColumns is the column count of the current schema.
	NumColumns = int(iota)
)

// ColumnSet is a bitmask of Columns. The zero value means "no
// projection requested" and readers treat it as AllColumns, so a
// zero-valued ColScan degrades to a full-width read.
type ColumnSet uint32

// AllColumns selects every column.
const AllColumns ColumnSet = 1<<NumColumns - 1

// Cols builds a ColumnSet from columns.
func Cols(cols ...Column) ColumnSet {
	var s ColumnSet
	for _, c := range cols {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in the set.
func (s ColumnSet) Has(c Column) bool { return s&(1<<c) != 0 }

// With returns the union of s and t.
func (s ColumnSet) With(t ColumnSet) ColumnSet { return s | t }

// Norm maps the zero set to AllColumns — the reader-side convention
// that "nothing requested" means "everything".
func (s ColumnSet) Norm() ColumnSet {
	if s == 0 {
		return AllColumns
	}
	return s & AllColumns
}

// Covers reports whether s (normalised) contains every column of t
// (normalised).
func (s ColumnSet) Covers(t ColumnSet) bool {
	return s.Norm()&t.Norm() == t.Norm()
}

// Pred is a predicate pushed down into a day read. A v3 reader skips
// whole blocks whose per-block min/max stats cannot intersect it and
// then re-checks every surviving record, so fn only ever sees matching
// records; a v1 reader applies the same per-record check after decode.
// The zero Pred matches everything.
type Pred struct {
	// StartMin/StartMax bound Record.Start inclusively; a zero time
	// leaves that side open.
	StartMin, StartMax time.Time

	// SrvPortLo/SrvPortHi bound Record.SrvPort inclusively when
	// HasSrvPort is set.
	HasSrvPort           bool
	SrvPortLo, SrvPortHi uint16

	// Proto matches Record.Proto exactly when HasProto is set.
	HasProto bool
	Proto    Proto

	// Tech matches Record.Tech exactly when HasTech is set.
	HasTech bool
	Tech    AccessTech
}

// Columns returns the columns the predicate reads — a v3 reader adds
// them to the decode set so Match sees real values even when the
// caller's projection omits them.
func (p *Pred) Columns() ColumnSet {
	if p == nil {
		return 0
	}
	var s ColumnSet
	if !p.StartMin.IsZero() || !p.StartMax.IsZero() {
		s |= 1 << ColStart
	}
	if p.HasSrvPort {
		s |= 1 << ColSrvPort
	}
	if p.HasProto {
		s |= 1 << ColProto
	}
	if p.HasTech {
		s |= 1 << ColTech
	}
	return s
}

// Match reports whether r satisfies the predicate.
func (p *Pred) Match(r *Record) bool {
	if p == nil {
		return true
	}
	if !p.StartMin.IsZero() && r.Start.Before(p.StartMin) {
		return false
	}
	if !p.StartMax.IsZero() && r.Start.After(p.StartMax) {
		return false
	}
	if p.HasSrvPort && (r.SrvPort < p.SrvPortLo || r.SrvPort > p.SrvPortHi) {
		return false
	}
	if p.HasProto && r.Proto != p.Proto {
		return false
	}
	if p.HasTech && r.Tech != p.Tech {
		return false
	}
	return true
}

// matchStats reports whether any record in a block with these stats
// could satisfy the predicate. Conservative: true on any doubt.
func (p *Pred) matchStats(st *blockStats) bool {
	if p == nil {
		return true
	}
	if !p.StartMin.IsZero() && st.startMax < p.StartMin.UnixMilli() {
		return false
	}
	if !p.StartMax.IsZero() && st.startMin > p.StartMax.UnixMilli() {
		return false
	}
	if p.HasSrvPort && (uint64(p.SrvPortHi) < st.srvPortMin || uint64(p.SrvPortLo) > st.srvPortMax) {
		return false
	}
	if p.HasProto && (uint64(p.Proto) < st.protoMin || uint64(p.Proto) > st.protoMax) {
		return false
	}
	if p.HasTech && (uint64(p.Tech) < st.techMin || uint64(p.Tech) > st.techMax) {
		return false
	}
	return true
}

// ColScan parameterises a column-projected day read.
type ColScan struct {
	// Cols is the projection: only these columns are guaranteed to be
	// populated in the records fn receives (a reader may deliver more —
	// v1 files always deliver all 22). Zero means all columns.
	Cols ColumnSet
	// Pred filters records; on v3 files it also skips whole blocks on
	// their min/max stats. Nil matches everything.
	Pred *Pred
	// Workers >1 decodes v3 blocks on that many goroutines (delivery
	// order is still the file's record order). <=1 decodes serially.
	// v1 files always decode serially. Blocks in flight are bounded
	// process-wide by decode slots (see readColsParallel), so a width
	// above GOMAXPROCS adds goroutines, not decoded blocks.
	Workers int
}
