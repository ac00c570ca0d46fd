package flowrec

import (
	"bufio"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/zpool"
)

// Column-scan observability: how much the columnar read path actually
// prunes. decoded_bytes counts payload bytes materialised into records
// (v1: encoded record bodies; v3: dictionaries plus inflated column
// payloads); pruned_bytes counts v3 column bodies skipped without
// decoding — unrequested columns and stat-excluded blocks.
var (
	mBlocksRead    = metrics.GetCounter("store.blocks_read")
	mBlocksSkipped = metrics.GetCounter("store.blocks_skipped")
	mBytesDecoded  = metrics.GetCounter("store.decoded_bytes")
	mBytesPruned   = metrics.GetCounter("store.pruned_bytes")
)

// Format selects the on-disk day-log encoding. The two formats have two
// jobs: v1 is what a day is written and sealed as (and what a WAL frame
// holds), v3 is what it is compacted to and read from.
type Format uint8

const (
	// FormatV1 is the row codec: a gzip stream of length-prefixed
	// records (magic "efl1"). The zero value, and the default.
	FormatV1 Format = iota
	// FormatV3 is the columnar codec with per-block compression (magic
	// "efl3", no file-level gzip), readable with column pruning and
	// predicate pushdown via ReadDayCols: pushdown skips blocks without
	// inflating them, and block decompression parallelises across
	// sc.Workers.
	FormatV3
)

// ErrRetiredFormat reports a day file in format v2, the whole-file-gzip
// columnar layout v3 replaced. The file is healthy — the error wraps
// ErrBadMagic, never ErrCorrupt, so nothing quarantines it — but this
// reader no longer decodes it: regenerate the day, or compact it to v3
// with a release that still reads v2.
var ErrRetiredFormat = fmt.Errorf(`flowrec: day file is in retired format v2 (magic "eflc"), this build reads v1 and v3 only: %w`, ErrBadMagic)

// retiredMagicV2 is v2's inner magic, recognised only to be refused by
// name.
var retiredMagicV2 = [4]byte{'e', 'f', 'l', 'c'}

// ParseFormat parses "v1" or "v3".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1":
		return FormatV1, nil
	case "v3":
		return FormatV3, nil
	}
	return FormatV1, fmt.Errorf("flowrec: unknown store format %q (want v1, v3)", s)
}

func (f Format) String() string {
	if f == FormatV3 {
		return "v3"
	}
	return "v1"
}

// OpenStoreFormat opens (creating if needed) a store rooted at dir
// whose CreateDay writes the given format. Reading auto-detects each
// file's format by magic, so a store may hold a mix of both.
func OpenStoreFormat(dir string, format Format) (*Store, error) {
	s, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	s.format = format
	return s, nil
}

// Format returns the format CreateDay writes.
func (s *Store) Format() Format { return s.format }

// ReadDayCols streams one day's records through a column-projected,
// predicate-filtered scan — the one read path; ReadDay is the zero
// ColScan. The file's format is auto-detected by magic. Only the
// columns in sc.Cols (plus those the predicate reads) are guaranteed
// populated — on v3 files the rest are never decoded, and blocks whose
// min/max stats cannot satisfy sc.Pred are skipped wholesale. fn only
// sees records matching sc.Pred. On v1 files the scan degrades to a
// full decode with a per-record filter, so the records fn observes are
// identical for either format. Iteration stops at fn's first error,
// which is returned verbatim; a damaged file fails with an error
// wrapping ErrCorrupt (see wrapScanErr).
func (s *Store) ReadDayCols(day time.Time, sc ColScan, fn func(*Record) error) error {
	path := s.dayPath(day)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			mDaysMissing.Inc()
			return fmt.Errorf("%w: %s", ErrNoDay, day.UTC().Format("2006-01-02"))
		}
		return fmt.Errorf("flowrec: opening day log: %w", err)
	}
	defer f.Close()
	// Per-day counts accumulate locally and publish once: the decode
	// loop is the stage-one hot path. days_read is deliberately NOT
	// part of this deferred publish — a day counts as read only when
	// its stream ends cleanly (see the EOF paths below), so corrupt
	// days never inflate read-throughput metrics.
	var nRecs uint64
	cr := &countingReader{r: f}
	defer func() {
		mRecordsRead.Add(nRecs)
		mBytesRead.Add(cr.n)
	}()
	// v1 files are gzip-wrapped whole; v3 files are raw so their blocks
	// can inflate independently. Peek the physical leading bytes to pick
	// the path: gzip magic vs "efl3".
	raw := bufio.NewReaderSize(cr, 1<<16)
	head, err := raw.Peek(4)
	switch {
	case err == io.EOF:
		// Shorter than any magic, down to zero bytes: no writer seals
		// such a file, so it is a truncated one.
		err = io.ErrUnexpectedEOF
	case err != nil:
	case [4]byte(head) == colMagicV3:
		err = s.readDayV3(raw, sc, fn, &nRecs)
	case head[0] == 0x1f && head[1] == 0x8b:
		err = s.readDayV1(raw, sc.Pred, fn, &nRecs)
	default:
		err = gzip.ErrHeader // neither a v3 file nor a gzip stream
	}
	return wrapScanErr(path, err)
}

// wrapScanErr is where a failed day read gets its classification and
// its file-path context. fn's own errors — the caller's sentinels,
// context cancellation — pass through verbatim. Stream damage, at the
// codec level (ErrCorrupt already) or below it (a truncated file, a
// failed gzip checksum, a flate stream that does not parse), counts in
// store.corrupt_records and satisfies errors.Is(err, ErrCorrupt), so
// one test tells callers the file itself is bad and quarantining it is
// right. Anything else (a foreign or retired magic, an I/O error) is
// not the file's damage and stays unmarked.
func wrapScanErr(path string, err error) error {
	if err == nil {
		return nil
	}
	var fe fnErr
	if errors.As(err, &fe) {
		return fe.err
	}
	switch {
	case errors.Is(err, ErrCorrupt):
		mCorruptRecords.Inc()
	case isStreamDamage(err):
		mCorruptRecords.Inc()
		return fmt.Errorf("flowrec: %s: %w (%w)", path, ErrCorrupt, err)
	}
	return fmt.Errorf("flowrec: %s: %w", path, err)
}

// isStreamDamage classifies transport-level damage below the codec — a
// truncated file, a failed checksum, a deflate stream that no longer
// parses.
func isStreamDamage(err error) bool {
	var flateErr flate.CorruptInputError
	return errors.Is(err, gzip.ErrChecksum) ||
		errors.Is(err, gzip.ErrHeader) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.As(err, &flateErr)
}

// fnErr marks an error returned by the caller's fn, which must
// propagate unwrapped (callers compare against their own sentinels).
type fnErr struct{ err error }

func (e fnErr) Error() string { return e.err.Error() }
func (e fnErr) Unwrap() error { return e.err }

// readDayV1 is the row-codec scan over a whole-file gzip stream: full
// decode, per-record predicate.
func (s *Store) readDayV1(raw *bufio.Reader, pred *Pred, fn func(*Record) error, nRecs *uint64) error {
	gz, err := zpool.GzipReader(raw)
	if err != nil {
		return err
	}
	defer zpool.PutGzipReader(gz)
	br := bufio.NewReaderSize(gz, 1<<16)
	magic, err := br.Peek(4)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	if [4]byte(magic) == retiredMagicV2 {
		return ErrRetiredFormat
	}
	dec, err := NewDecoder(br)
	if err != nil {
		return err
	}
	var payload uint64
	defer func() { mBytesDecoded.Add(payload) }()
	var rec Record
	for {
		rec = Record{}
		if err := dec.Decode(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			// The records decoded cleanly, but a clean stream must also
			// end with an intact gzip trailer: Close is where a
			// truncated or checksum-damaged tail surfaces, and
			// swallowing it would let a corrupt day read as whole.
			if cerr := gz.Close(); cerr != nil {
				return fmt.Errorf("gzip trailer: %w", cerr)
			}
			mDaysRead.Inc()
			return nil
		}
		payload += dec.lastSize
		if !pred.Match(&rec) {
			continue
		}
		*nRecs++
		if err := fn(&rec); err != nil {
			return fnErr{err}
		}
	}
}

// readDayV3 is the per-block-compressed columnar scan. The stream end
// is validated by the terminator (block and row counts plus hard EOF),
// so a scan that returns nil read the day to a clean end.
func (s *Store) readDayV3(br *bufio.Reader, sc ColScan, fn func(*Record) error, nRecs *uint64) error {
	if _, err := br.Discard(4); err != nil { // the peeked magic
		return err
	}
	need := sc.Cols.Norm() | sc.Pred.Columns()
	cr := &colReader{br: br, need: need, pred: sc.Pred}
	if err := s.scanBlocks(cr, sc, fn, nRecs); err != nil {
		return err
	}
	mDaysRead.Inc()
	return nil
}

// scanBlocks drives a columnar scan over cr: blocks stream serially
// off the reader; decoding and per-block inflation fan out over
// sc.Workers goroutines when asked, with delivery re-sequenced to file
// order so fn observes the same record order at any worker count. It
// returns nil only at a clean end of stream.
func (s *Store) scanBlocks(cr *colReader, sc ColScan, fn func(*Record) error, nRecs *uint64) error {
	defer func() {
		mBlocksRead.Add(cr.blocksRead)
		mBlocksSkipped.Add(cr.blocksSkipped)
		mBytesDecoded.Add(cr.bytesDecoded)
		mBytesPruned.Add(cr.bytesPruned)
	}()
	deliver := func(recs []Record) error {
		for i := range recs {
			if !sc.Pred.Match(&recs[i]) {
				continue
			}
			*nRecs++
			if err := fn(&recs[i]); err != nil {
				return fnErr{err: err}
			}
		}
		return nil
	}

	if sc.Workers > 1 {
		return s.readColsParallel(cr, sc.Workers, deliver)
	}
	strs := make(map[string]string, 256)
	var inf colInflater
	var recs []Record
	for {
		b, err := cr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if cap(recs) < b.rows {
			recs = make([]Record, b.rows)
		}
		recs = recs[:b.rows]
		for i := range recs {
			recs[i] = Record{}
		}
		err = decodeBlock(b, cr.need, recs, strs, &inf)
		b.release()
		if err != nil {
			return err
		}
		if err := deliver(recs); err != nil {
			return err
		}
	}
}

// seqBlock pairs a raw block with its delivery sequence number and
// the decode slot it holds until its records are delivered.
type seqBlock struct {
	seq  int
	b    *colBlock
	slot chan struct{}
}

// decoded is one worker's output: the block's records (backed by the
// pooled slice rp, returned once delivered), or its error, and the
// block's decode slot.
type decoded struct {
	seq  int
	recs []Record
	rp   *[]Record
	err  error
	slot chan struct{}
}

// prodEnd is the producer's final word: how many blocks it enqueued,
// and the stream-level error (nil means a clean end of stream).
type prodEnd struct {
	n   int
	err error
}

// recsPool recycles the per-block record slices the parallel scan
// decodes into. fn already observes records by reused pointer (the v1
// decoder reuses one record throughout), so callers copy what they
// keep and recycling the slices is safe.
var recsPool = sync.Pool{New: func() any { s := make([]Record, 0, colBlockRows); return &s }}

// Decode slots bound the blocks every parallel scan in the process
// holds at once — dispatched, decoding, decoded or being delivered.
// Each scan has one slot of its own, so it always makes progress, and
// shares GOMAXPROCS more with every other scan: stage one running
// Workers days at width GOMAXPROCS then holds about Workers+GOMAXPROCS
// decoded blocks, not Workers×GOMAXPROCS×3. Taking a slot is a send,
// giving it back a receive. The shared pool is sized on first use, so
// a process that sets GOMAXPROCS in main sees its own value.
var (
	sharedSlotsOnce sync.Once
	sharedSlots     chan struct{}
)

func sharedDecodeSlots() chan struct{} {
	sharedSlotsOnce.Do(func() { sharedSlots = make(chan struct{}, runtime.GOMAXPROCS(0)) })
	return sharedSlots
}

// readColsParallel reads raw blocks serially, in file order, and fans
// block decoding — per-column inflation included — out over workers
// goroutines. A reorder buffer on the consuming side delivers records
// in exact file order, so parallelism never changes what fn observes.
// A block is dispatched only once it holds a decode slot, and gives
// the slot back when delivered or dropped. Blocks dispatch in file
// order, so the block the consumer waits for always holds one: the
// scan's own slot is free whenever everything before it is delivered.
// Records decoded before a mid-stream failure are delivered, then the
// failure is returned — the same prefix-delivery contract as the
// serial scan.
func (s *Store) readColsParallel(cr *colReader, workers int, deliver func([]Record) error) error {
	jobs := make(chan seqBlock, workers)
	out := make(chan decoded, workers)
	end := make(chan prodEnd, 1)
	done := make(chan struct{})
	var closeDone sync.Once
	abort := func() { closeDone.Do(func() { close(done) }) }
	defer abort()

	own, shared := make(chan struct{}, 1), sharedDecodeSlots()
	go func() { // producer: the only goroutine touching the raw stream
		defer close(jobs)
		seq := 0
		for {
			b, err := cr.next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				end <- prodEnd{n: seq, err: err}
				return
			}
			var slot chan struct{}
			select {
			case own <- struct{}{}:
				slot = own
			case shared <- struct{}{}:
				slot = shared
			case <-done:
				b.release()
				end <- prodEnd{n: seq, err: nil}
				return
			}
			select {
			case jobs <- seqBlock{seq: seq, b: b, slot: slot}:
				seq++
			case <-done:
				<-slot
				b.release()
				end <- prodEnd{n: seq, err: nil}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			strs := make(map[string]string, 256)
			var inf colInflater
			for j := range jobs {
				rp := recsPool.Get().(*[]Record)
				recs := *rp
				if cap(recs) < j.b.rows {
					recs = make([]Record, j.b.rows)
				}
				recs = recs[:j.b.rows]
				for i := range recs {
					recs[i] = Record{}
				}
				*rp = recs
				err := decodeBlock(j.b, cr.need, recs, strs, &inf)
				j.b.release()
				select {
				case out <- decoded{seq: j.seq, recs: recs, rp: rp, err: err, slot: j.slot}:
				case <-done:
					<-j.slot
					return
				}
			}
		}()
	}
	// Consumer: re-sequence decoded blocks to file order.
	pending := make(map[int]decoded)
	next, total := 0, -1
	var endErr error
	drain := func() { // give back every slot this scan still holds
		abort()
		reaped := make(chan struct{})
		go func() { // unblock any worker mid-send, then reap them
			for d := range out {
				<-d.slot
			}
			close(reaped)
		}()
		wg.Wait()
		close(out)
		<-reaped
		for j := range jobs { // left behind by workers that quit
			j.b.release()
			<-j.slot
		}
		for _, d := range pending {
			<-d.slot
		}
		if total < 0 {
			<-end // producer's final word was never consumed
		}
	}
	pop := func() (decoded, bool) {
		d, ok := pending[next]
		if ok {
			delete(pending, next)
			next++
		}
		return d, ok
	}
	for total < 0 || next < total {
		if total >= 0 && len(pending) >= total-next {
			break // everything still owed is already buffered
		}
		select {
		case d := <-out:
			if d.err != nil {
				<-d.slot
				drain()
				return d.err
			}
			pending[d.seq] = d
		case e := <-end:
			total, endErr = e.n, e.err
		}
		for {
			d, ok := pop()
			if !ok {
				break
			}
			err := deliver(d.recs)
			recsPool.Put(d.rp)
			<-d.slot
			if err != nil {
				drain()
				return err
			}
		}
	}
	for next < total {
		d, _ := pop()
		err := deliver(d.recs)
		if d.rp != nil {
			recsPool.Put(d.rp)
			<-d.slot
		}
		if err != nil {
			drain()
			return err
		}
	}
	drain()
	return endErr
}
