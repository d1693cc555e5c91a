package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/parallel"
)

// Streaming Mobike-scale ingestion (DESIGN.md §14).
//
// A reader built on encoding/csv costs two string allocations and a
// reflective time.Parse per row, and materialises the whole []Trip. At
// the reference workload's scale (the Wuhan Mobike study ingests
// 100,342,626 GPS points) that is two orders of magnitude past feasible.
// This file is the only CSV reader (an encoding/csv one survives only
// as the test oracle in csv_reference_test.go):
//
//   - scanChunks reads fixed-size chunks, aligns each chunk on a record
//     boundary (the last '\n' outside a quoted field), and hands chunks
//     to workers in parallel through internal/parallel. Records without
//     quotes — the entire Mobike schema in practice — are parsed in
//     place from byte slices with no per-field allocations; records
//     containing quotes fall back to a per-record encoding/csv parse, so
//     quoting semantics are inherited rather than re-implemented.
//   - Two kinds of work run on the chunks. IngestCSV parses each into a
//     batch of RawTrips (ReadCSV's path). The place fold behind
//     ReadEndPoints and ScanSummarize validates every field the same
//     way but builds nothing from the ids and the time: each worker
//     folds its chunk into a bounding box and a few hundred places, and
//     the coordinator merges those, not rows.
//   - Chunk index = task index and the merge runs in chunk order, so
//     output is bit-identical to the sequential encoding/csv oracle at
//     any worker count (FuzzScanCSV, FuzzReadEndPoints and the
//     differential tests enforce this).
//   - Peak memory is O(ChunkSize × Workers) regardless of file size: the
//     coordinator owns one buffer per worker and batches are only valid
//     for the duration of the emit callback.
//
// The chunk/newline-alignment invariant: a chunk may only end at a byte
// position where the CSV reader's quote state is "outside quotes". We
// track quote parity (toggling on every '"'); on RFC 4180-clean input
// parity equals the reader's quote state, and on malformed input every
// record that would make them disagree contains a quote and therefore
// takes the encoding/csv fallback, which reports the same error the
// sequential reader would.

// ScanOptions configures the streaming scanner. The zero value selects a
// 1 MiB chunk and the process-default worker count.
type ScanOptions struct {
	// ChunkSize is the read-buffer size in bytes (default 1 MiB). A
	// record longer than the chunk grows the buffer transparently. Tiny
	// values are legal and exercised by tests to force chunk boundaries
	// mid-record and mid-quoted-field.
	ChunkSize int
	// Workers bounds the parallel parse fan-out (default
	// parallel.Default()). Output is bit-identical for every value.
	Workers int

	// decodeGeohashes decodes the start/end geohash fields into LatLng
	// centres during the parallel parse. ReadCSV sets it when it
	// projects; the place fold's quoted-record fallback always does.
	decodeGeohashes bool
	// allowEmptyGeohash, with decodeGeohashes, skips empty geohash
	// fields (Has*LL stays false) instead of failing — GeohashCenter
	// semantics rather than ProjectTrips semantics.
	allowEmptyGeohash bool
}

func (o ScanOptions) withDefaults() ScanOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.Workers <= 0 {
		o.Workers = parallel.Default()
	}
	return o
}

// RawTrip is one parsed Mobike record. The geohash byte slices point into
// the scanner's chunk buffer and are only valid during the emit callback;
// copy (or string()) them to retain.
type RawTrip struct {
	// Line is the 1-based file line the record starts on (the header is
	// line 1), the line a RowError about this record would carry.
	Line int

	OrderID   int64
	UserID    int64
	BikeID    int64
	BikeType  int
	StartTime time.Time

	StartGeohash []byte
	EndGeohash   []byte

	// Decoded geohash cell centres, when the consumer asked for them
	// (ReadCSV with a projector, the place fold's quoted records).
	// Has*LL is false only for an empty field under allowEmptyGeohash.
	StartLL    geo.LatLng
	EndLL      geo.LatLng
	HasStartLL bool
	HasEndLL   bool
}

// RowError reports a malformed CSV record with its 1-based file line
// number (the header is line 1), matching the convention of
// encoding/csv's ParseError.
type RowError struct {
	Line int
	Err  error
}

func (e *RowError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *RowError) Unwrap() error { return e.Err }

var (
	errBadInt     = errors.New("invalid integer")
	errIntRange   = errors.New("integer out of range")
	errFieldCount = errors.New("wrong number of fields")
)

// IngestCSV streams the Mobike schema through emit in batches, in file
// order, after validating the header. Batches (and the geohash slices
// inside them) are only valid for the duration of the callback. An emit
// error aborts the scan and is returned verbatim.
func IngestCSV(r io.Reader, opts ScanOptions, emit func(batch []RawTrip) error) error {
	opts = opts.withDefaults()
	parses := make([]chunkParse, opts.Workers)
	return scanChunks(r, opts,
		func(slot int, chunk []byte, base int) { parseChunk(chunk, base, &opts, &parses[slot]) },
		func(slot int) error {
			p := &parses[slot]
			if p.err != nil {
				return p.err
			}
			if len(p.trips) == 0 {
				return nil
			}
			return emit(p.trips)
		})
}

// scanChunks is the serial chunking coordinator every scan runs on. It
// validates the header, then cuts up to opts.Workers record-aligned
// chunks at a time, runs work on each in parallel (chunk index = slot),
// and then calls merge on the slots in chunk order. work(slot, chunk,
// base) receives a chunk that follows base newlines of the file and may
// touch only its own slot; a merge error ends the scan and is returned
// verbatim. opts must already carry its defaults.
func scanChunks(r io.Reader, opts ScanOptions, work func(slot int, chunk []byte, base int), merge func(slot int) error) error {
	s := &scanState{r: r, chunkSize: opts.ChunkSize}
	if err := s.readHeader(); err != nil {
		return err
	}
	workers := opts.Workers
	bufs := make([][]byte, workers)
	chunks := make([][]byte, workers)
	bases := make([]int, workers)
	for {
		// Fill up to `workers` record-aligned chunks, tracking the
		// newline count preceding each so rows and errors carry file
		// lines.
		n := 0
		for w := 0; w < workers; w++ {
			chunk, err := s.nextChunk(&bufs[w])
			if err != nil {
				return err
			}
			if chunk == nil {
				break
			}
			chunks[n] = chunk
			bases[n] = s.lines
			s.lines += bytes.Count(chunk, nlBytes)
			n++
		}
		if n == 0 {
			return nil
		}
		// Deterministic parallel work: chunk index = task index.
		parallel.For(workers, n, func(_, i int) { work(i, chunks[i], bases[i]) })
		// In-order merge.
		for i := 0; i < n; i++ {
			if err := merge(i); err != nil {
				return err
			}
		}
	}
}

var nlBytes = []byte{'\n'}

// scanState is the chunker's read state, owned by scanChunks.
type scanState struct {
	r         io.Reader
	chunkSize int
	leftover  []byte // partial record past the last chunk's boundary
	done      bool   // underlying reader returned io.EOF
	lines     int    // newlines consumed from the stream so far
}

// readHeader consumes leading blank lines and the header record,
// validating it against csvHeader exactly as encoding/csv would.
func (s *scanState) readHeader() error {
	buf := make([]byte, 0, s.chunkSize)
	for {
		for !s.done && len(buf) < cap(buf) {
			n, err := s.r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				s.done = true
				break
			}
			if err != nil {
				return err
			}
		}
		for {
			rec, n, ok := cutRecord(buf, s.done)
			if !ok {
				break
			}
			s.lines += bytes.Count(buf[:n], nlBytes)
			buf = buf[n:]
			if len(rec) > 0 && rec[len(rec)-1] == '\r' {
				rec = rec[:len(rec)-1]
			}
			if len(rec) == 0 {
				continue // blank line before the header, as csv skips
			}
			if err := validateHeader(rec); err != nil {
				return err
			}
			s.leftover = buf
			return nil
		}
		if s.done {
			return fmt.Errorf("read header: %w", io.EOF)
		}
		// Consuming blank lines above may have shrunk the slice's spare
		// capacity to zero, so grow relative to the chunk size too.
		grown := make([]byte, len(buf), max(s.chunkSize, cap(buf)*2))
		copy(grown, buf)
		buf = grown
	}
}

func validateHeader(rec []byte) error {
	if bytes.IndexByte(rec, '"') >= 0 {
		// Quoted header fields are legal CSV; let encoding/csv unquote.
		cr := csv.NewReader(bytes.NewReader(rec))
		cr.FieldsPerRecord = len(csvHeader)
		fields, err := cr.Read()
		if err != nil {
			return fmt.Errorf("read header: %w", err)
		}
		for i, want := range csvHeader {
			if fields[i] != want {
				return fmt.Errorf("%w: column %d is %q, want %q", ErrBadHeader, i, fields[i], want)
			}
		}
		return nil
	}
	for i, want := range csvHeader {
		var field []byte
		if c := bytes.IndexByte(rec, ','); c >= 0 {
			field, rec = rec[:c], rec[c+1:]
		} else {
			field, rec = rec, nil
		}
		if string(field) != want {
			return fmt.Errorf("%w: column %d is %q, want %q", ErrBadHeader, i, field, want)
		}
	}
	if rec != nil {
		return fmt.Errorf("read header: %w", errFieldCount)
	}
	return nil
}

// nextChunk returns the next record-aligned chunk, or nil at end of
// input. The chunk lives in *bufp, which is reused (and grown when a
// single record exceeds it) across calls.
func (s *scanState) nextChunk(bufp *[]byte) ([]byte, error) {
	if s.done && len(s.leftover) == 0 {
		return nil, nil
	}
	buf := (*bufp)[:0]
	if cap(buf) < s.chunkSize {
		buf = make([]byte, 0, s.chunkSize)
	}
	// The leftover may alive in another worker's buffer (or, at one
	// worker, later in this very buffer — append copies front-ward,
	// which is overlap-safe).
	buf = append(buf, s.leftover...)
	s.leftover = nil
	for {
		for !s.done && len(buf) < cap(buf) {
			n, err := s.r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				s.done = true
				break
			}
			if err != nil {
				*bufp = buf
				return nil, err
			}
		}
		if len(buf) == 0 {
			*bufp = buf
			return nil, nil
		}
		if b := lastRecordEnd(buf); b >= 0 {
			s.leftover = buf[b+1:]
			*bufp = buf
			return buf[:b+1], nil
		}
		if s.done {
			// Final record with no trailing newline.
			*bufp = buf
			return buf, nil
		}
		// No record boundary in a full buffer: the record is longer
		// than the chunk; grow and keep reading.
		grown := make([]byte, len(buf), cap(buf)*2)
		copy(grown, buf)
		buf = grown
	}
}

// lastRecordEnd returns the index of the last '\n' outside a quoted
// field, or -1.
func lastRecordEnd(b []byte) int {
	if bytes.IndexByte(b, '"') < 0 {
		return bytes.LastIndexByte(b, '\n')
	}
	last := -1
	inQuote := false
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			inQuote = !inQuote
		case '\n':
			if !inQuote {
				last = i
			}
		}
	}
	return last
}

// cutRecord splits the first record (terminated by a '\n' outside
// quotes) off the front of b. n counts the consumed bytes including the
// terminator. With final set, a non-empty remainder without a terminator
// is the last record of the input.
func cutRecord(b []byte, final bool) (rec []byte, n int, ok bool) {
	nl := bytes.IndexByte(b, '\n')
	if nl >= 0 && bytes.IndexByte(b[:nl], '"') < 0 {
		return b[:nl], nl + 1, true
	}
	if nl < 0 && bytes.IndexByte(b, '"') < 0 {
		if final && len(b) > 0 {
			return b, len(b), true
		}
		return nil, 0, false
	}
	inQuote := false
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			inQuote = !inQuote
		case '\n':
			if !inQuote {
				return b[:i], i + 1, true
			}
		}
	}
	if final && len(b) > 0 {
		return b, len(b), true
	}
	return nil, 0, false
}

// recordCutter walks the records of a record-aligned chunk. It is the
// one record splitter of the parse and the place fold: the quote
// fallback, CRLF, blank lines and file line numbers are handled here
// and nowhere else.
type recordCutter struct {
	chunk []byte
	pos   int
	line  int // file line of the next record
}

// next returns the next non-blank record, its trailing CR stripped, with
// the 1-based file line it starts on and whether it contains a quote
// (and so takes the encoding/csv fallback). ok is false at the end of
// the chunk.
func (c *recordCutter) next() (rec []byte, line int, quoted, ok bool) {
	for c.pos < len(c.chunk) {
		rest := c.chunk[c.pos:]
		// Fast cut: a record with no quote before its first newline ends
		// there; only a quoted prefix needs the parity scan, and only
		// the parity-cut record can contain quotes at all.
		var n int
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			rec, n = rest[:nl], nl+1
		} else {
			rec, n = rest, len(rest) // final record, no terminator
		}
		quoted = bytes.IndexByte(rec, '"') >= 0
		if quoted {
			rec, n, _ = cutRecord(rest, true)
		}
		line = c.line
		if rest[n-1] == '\n' {
			c.line++
		}
		c.pos += n
		if len(rec) > 0 && rec[len(rec)-1] == '\r' {
			rec = rec[:len(rec)-1]
		}
		if len(rec) == 0 {
			continue // blank line, as csv skips
		}
		if quoted {
			// Only quoted records can span lines.
			c.line += bytes.Count(rec, nlBytes)
		}
		return rec, line, quoted, true
	}
	return nil, 0, false, false
}

// chunkParse is one worker's reusable parse output.
type chunkParse struct {
	trips []RawTrip
	err   *RowError
}

// parseChunk parses every record in a record-aligned chunk that follows
// base newlines of the file. It runs inside parallel.For: it only
// touches its own chunk and output slot. Records parse directly into
// their output slot (every RawTrip field is written on success) so the
// hot loop never zeroes or copies a struct.
func parseChunk(chunk []byte, base int, opts *ScanOptions, out *chunkParse) {
	if cap(out.trips) == 0 && len(chunk) > 0 {
		// Reserve for the shortest plausible Mobike record up front:
		// growing by doubling would repeatedly allocate and zero
		// multi-megabyte pointer-ful slices on the first chunks.
		out.trips = make([]RawTrip, 0, len(chunk)/32+1)
	}
	out.trips = out.trips[:0]
	out.err = nil
	cut := recordCutter{chunk: chunk, line: base + 1}
	for {
		rec, line, quoted, ok := cut.next()
		if !ok {
			return
		}
		if len(out.trips) < cap(out.trips) {
			out.trips = out.trips[:len(out.trips)+1]
		} else {
			out.trips = append(out.trips, RawTrip{})
		}
		rt := &out.trips[len(out.trips)-1]
		rt.Line = line
		var err error
		if quoted {
			err = parseRecordSlow(rec, opts, rt)
		} else {
			err = parseRecordFast(rec, opts, rt)
		}
		if err != nil {
			out.trips = out.trips[:len(out.trips)-1]
			out.err = &RowError{Line: line, Err: err}
			return
		}
	}
}

// fastRecord is the integer and time fields of a record containing no
// quotes, validated and decoded. Both the RawTrip parse and the place
// fold go through parseFast, so they accept and reject the same records
// with the same errors.
type fastRecord struct {
	ids   [4]int64 // orderid, userid, bikeid, biketype
	start wallClock
}

// parseFast splits rec into its seven fields, decodes the integers and
// the timestamp from bytes into fr, and returns the two geohash fields.
// No allocations on success. fr holds no pointers and the fields come
// back in registers, so the per-row stores need no write barrier. The
// split runs on bytes.IndexByte: a byte loop here ran up to 30% faster
// or slower from one build to the next as its code alignment moved.
func parseFast(rec []byte, fr *fastRecord) (startGeohash, endGeohash []byte, err error) {
	var f [7][]byte
	for i := range 6 {
		c := bytes.IndexByte(rec, ',')
		if c < 0 {
			return nil, nil, errFieldCount
		}
		f[i], rec = rec[:c], rec[c+1:]
	}
	if bytes.IndexByte(rec, ',') >= 0 {
		return nil, nil, errFieldCount
	}
	f[6] = rec
	for i := range fr.ids {
		if fr.ids[i], err = parseInt64(f[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", csvHeader[i], err)
		}
	}
	if fr.start, err = checkMobikeTime(f[4]); err != nil {
		return nil, nil, fmt.Errorf("starttime: %w", err)
	}
	return f[5], f[6], nil
}

// parseRecordFast parses a record containing no quotes into rt. No
// allocations on success. Every RawTrip field is assigned, so a dirty
// reused slot is fully overwritten.
func parseRecordFast(rec []byte, opts *ScanOptions, rt *RawTrip) error {
	var fr fastRecord
	start, end, err := parseFast(rec, &fr)
	if err != nil {
		return err
	}
	rt.OrderID, rt.UserID, rt.BikeID, rt.BikeType = fr.ids[0], fr.ids[1], fr.ids[2], int(fr.ids[3])
	rt.StartTime = fr.start.time()
	rt.StartGeohash, rt.EndGeohash = start, end
	return decodeGeohashFields(opts, rt)
}

// parseRecordSlow parses a record containing quotes through encoding/csv,
// inheriting its exact quoting semantics and errors.
func parseRecordSlow(rec []byte, opts *ScanOptions, rt *RawTrip) error {
	cr := csv.NewReader(bytes.NewReader(rec))
	cr.FieldsPerRecord = len(csvHeader)
	fields, err := cr.Read()
	if err != nil {
		return err
	}
	if rt.OrderID, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return fmt.Errorf("orderid: %w", err)
	}
	if rt.UserID, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return fmt.Errorf("userid: %w", err)
	}
	if rt.BikeID, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
		return fmt.Errorf("bikeid: %w", err)
	}
	if rt.BikeType, err = strconv.Atoi(fields[3]); err != nil {
		return fmt.Errorf("biketype: %w", err)
	}
	if rt.StartTime, err = time.Parse(csvTimeLayout, fields[4]); err != nil {
		return fmt.Errorf("starttime: %w", err)
	}
	rt.StartGeohash = []byte(fields[5])
	rt.EndGeohash = []byte(fields[6])
	return decodeGeohashFields(opts, rt)
}

func decodeGeohashFields(opts *ScanOptions, rt *RawTrip) error {
	// Reset first: the RawTrip may be a dirty reused slot, and the
	// skip-decode paths below must not leak a previous record's values.
	rt.StartLL, rt.EndLL = geo.LatLng{}, geo.LatLng{}
	rt.HasStartLL, rt.HasEndLL = false, false
	if !opts.decodeGeohashes {
		return nil
	}
	start, end, err := decodeGeohashPair(rt.StartGeohash, rt.EndGeohash, opts.allowEmptyGeohash)
	if err != nil {
		return err
	}
	rt.StartLL, rt.HasStartLL = start.ll, start.ok
	rt.EndLL, rt.HasEndLL = end.ll, end.ok
	return nil
}

// cellCentre is a decoded geohash field: its cell centre, or ok false
// for an empty field that was allowed.
type cellCentre struct {
	ll geo.LatLng
	ok bool
}

// decodeGeohashPair decodes a record's start and end geohash fields.
// With allowEmpty an empty field is skipped rather than failed.
func decodeGeohashPair(start, end []byte, allowEmpty bool) (s, e cellCentre, err error) {
	if len(start) > 0 || !allowEmpty {
		if s.ll, _, _, err = geo.DecodeGeohashBytes(start); err != nil {
			return s, e, fmt.Errorf("start geohash: %w", err)
		}
		s.ok = true
	}
	if len(end) > 0 || !allowEmpty {
		if e.ll, _, _, err = geo.DecodeGeohashBytes(end); err != nil {
			return s, e, fmt.Errorf("end geohash: %w", err)
		}
		e.ok = true
	}
	return s, e, nil
}

// parseInt64 is strconv.ParseInt(string(b), 10, 64) without the string.
func parseInt64(b []byte) (int64, error) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, errBadInt
	}
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, errBadInt
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return 0, errIntRange
		}
		n = n*10 + uint64(d)
	}
	if neg {
		if n > 1<<63 {
			return 0, errIntRange
		}
		if n == 1<<63 {
			return math.MinInt64, nil
		}
		return -int64(n), nil
	}
	if n > math.MaxInt64 {
		return 0, errIntRange
	}
	return int64(n), nil
}

var errBadTime = errors.New("invalid timestamp")

// wallClock is a validated csvTimeLayout timestamp, not yet a time.Time.
type wallClock struct {
	year, month, day, hour, minute, sec int
}

// time is the wall-clock UTC instant, bit-identical to time.Parse's.
func (c wallClock) time() time.Time {
	return time.Date(c.year, time.Month(c.month), c.day, c.hour, c.minute, c.sec, 0, time.UTC)
}

// checkMobikeTime validates csvTimeLayout ("2006-01-02 15:04:05") from
// bytes, accepting the same inputs time.Parse does for that layout: the
// hour may be one or two digits ("15" is a non-padded verb), everything
// else is fixed-width, and month/day/hour/minute/second are
// range-checked. It is the only timestamp validator: the RawTrip parse
// converts its result with time, the place fold discards it.
func checkMobikeTime(b []byte) (wallClock, error) {
	var c wallClock
	if len(b) < 18 || len(b) > 19 {
		return c, errBadTime
	}
	if b[4] != '-' || b[7] != '-' || b[10] != ' ' {
		return c, errBadTime
	}
	var ok, ok2, ok3 bool
	c.year, ok = atoiFixed(b[0:4])
	c.month, ok2 = atoiFixed(b[5:7])
	c.day, ok3 = atoiFixed(b[8:10])
	if !ok || !ok2 || !ok3 {
		return c, errBadTime
	}
	var rest int
	switch {
	case isDigit(b[11]) && isDigit(b[12]):
		c.hour = int(b[11]-'0')*10 + int(b[12]-'0')
		rest = 13
	case isDigit(b[11]):
		c.hour = int(b[11] - '0')
		rest = 12
	default:
		return c, errBadTime
	}
	if rest+6 != len(b) || b[rest] != ':' || b[rest+3] != ':' {
		return c, errBadTime
	}
	c.minute, ok = atoiFixed(b[rest+1 : rest+3])
	c.sec, ok2 = atoiFixed(b[rest+4 : rest+6])
	if !ok || !ok2 {
		return c, errBadTime
	}
	if c.month < 1 || c.month > 12 || c.day < 1 || c.day > daysIn(c.month, c.year) ||
		c.hour > 23 || c.minute > 59 || c.sec > 59 {
		return c, errBadTime
	}
	return c, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func atoiFixed(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func daysIn(month, year int) int {
	switch month {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	default:
		return 31
	}
}

// ScanSummary is the single-pass reduction over a trip CSV: the row
// count and the geodetic extrema of the start and end geohash cell
// centres (the projection-centre bounding box GeohashCenter computes
// from materialised trips).
type ScanSummary struct {
	Trips int64

	Seen                           bool
	MinLat, MinLng, MaxLat, MaxLng float64
}

// emptySummary is the summary of no rows: extrema outside every
// coordinate, so the first centre sets them.
var emptySummary = ScanSummary{MinLat: 91, MinLng: 181, MaxLat: -91, MaxLng: -181}

// include widens the bounding box to ll.
func (s *ScanSummary) include(ll geo.LatLng) {
	s.Seen = true
	s.MinLat, s.MaxLat = min(s.MinLat, ll.Lat), max(s.MaxLat, ll.Lat)
	s.MinLng, s.MaxLng = min(s.MinLng, ll.Lng), max(s.MaxLng, ll.Lng)
}

// merge adds o's rows and widens the bounding box to o's. Counts, min
// and max are order-free, so merging chunk summaries is bit-identical to
// summarising their rows in one run.
func (s *ScanSummary) merge(o ScanSummary) {
	s.Trips += o.Trips
	s.Seen = s.Seen || o.Seen
	s.MinLat, s.MaxLat = min(s.MinLat, o.MinLat), max(s.MaxLat, o.MaxLat)
	s.MinLng, s.MaxLng = min(s.MinLng, o.MinLng), max(s.MaxLng, o.MaxLng)
}

// Center returns the centre of the combined bounding box, bit-identical
// to GeohashCenter over the materialised trips, or ErrNoGeohashes when
// every geohash field was empty.
func (s ScanSummary) Center() (geo.LatLng, error) {
	if !s.Seen {
		return geo.LatLng{}, ErrNoGeohashes
	}
	return geo.LatLng{Lat: (s.MinLat + s.MaxLat) / 2, Lng: (s.MinLng + s.MaxLng) / 2}, nil
}

// ScanSummarize streams the CSV once and reduces it to a ScanSummary.
// Empty geohash fields are skipped (GeohashCenter semantics); invalid
// ones fail the scan.
func ScanSummarize(r io.Reader, opts ScanOptions) (ScanSummary, error) {
	f, err := foldCSV(r, opts)
	if err != nil {
		return ScanSummary{}, err
	}
	return f.sum, nil
}

// places is a set of end cell centres with trip counts. The index is
// keyed on the centre's bits, which hash faster than float keys;
// FoldWeighted merges any two keys that compare equal.
type places struct {
	index   map[[2]uint64]int // centre bits -> position in centres
	centres []geo.LatLng
	counts  []int
}

func (p *places) add(ll geo.LatLng, n int) {
	key := [2]uint64{math.Float64bits(ll.Lat), math.Float64bits(ll.Lng)}
	k, ok := p.index[key]
	if !ok {
		if p.index == nil {
			p.index = make(map[[2]uint64]int)
		}
		k = len(p.centres)
		p.index[key] = k
		p.centres = append(p.centres, ll)
		p.counts = append(p.counts, 0)
	}
	p.counts[k] += n
}

// placeFold is the fold of a run of rows into places: the rows'
// summary, the distinct end cell centres of the rows with both
// geohashes, the first row with an empty geohash, held as pending, and
// the first malformed row, where a chunk's fold stops. One placeFold per
// worker folds a chunk and is reused across rounds; one more holds the
// merge of the chunks in chunk order.
type placeFold struct {
	sum     ScanSummary
	places  places
	pending *RowError
	err     *RowError
}

// foldChunk folds every record in a record-aligned chunk that follows
// base newlines of the file. A record is validated exactly as
// parseChunk parses it, so the fold fails on the same row with the same
// error, but nothing is built from the ids and the time. It runs inside
// parallel.For: it only touches its own chunk and fold.
func (f *placeFold) foldChunk(chunk []byte, base int) {
	f.sum = emptySummary
	clear(f.places.index)
	f.places.centres, f.places.counts = f.places.centres[:0], f.places.counts[:0]
	f.pending, f.err = nil, nil
	cut := recordCutter{chunk: chunk, line: base + 1}
	for {
		rec, line, quoted, ok := cut.next()
		if !ok {
			return
		}
		var start, end cellCentre
		var err error
		if quoted {
			// The encoding/csv fallback parses into a RawTrip, decoding
			// and skipping empty geohashes as the fast path does.
			var rt RawTrip
			if err = parseRecordSlow(rec, &ScanOptions{decodeGeohashes: true, allowEmptyGeohash: true}, &rt); err == nil {
				start, end = cellCentre{rt.StartLL, rt.HasStartLL}, cellCentre{rt.EndLL, rt.HasEndLL}
			}
		} else {
			var fr fastRecord
			var startGeohash, endGeohash []byte
			if startGeohash, endGeohash, err = parseFast(rec, &fr); err == nil {
				start, end, err = decodeGeohashPair(startGeohash, endGeohash, true)
			}
		}
		if err != nil {
			f.err = &RowError{Line: line, Err: err}
			return
		}
		f.sum.Trips++
		if start.ok {
			f.sum.include(start.ll)
		}
		if end.ok {
			f.sum.include(end.ll)
		}
		switch {
		case start.ok && end.ok:
			f.places.add(end.ll, 1)
		case f.pending == nil:
			side := "end"
			if !start.ok {
				side = "start"
			}
			f.pending = &RowError{Line: line, Err: fmt.Errorf("%s geohash: %w", side, geo.ErrInvalidGeohash)}
		}
	}
}

// merge folds the next chunk's fold, in chunk order, into f. A chunk's
// malformed row ends the scan; the pending row is the first in chunk
// order, so the first in the file.
func (f *placeFold) merge(c *placeFold) error {
	if c.err != nil {
		return c.err
	}
	f.sum.merge(c.sum)
	if f.pending == nil {
		f.pending = c.pending
	}
	for i, ll := range c.places.centres {
		f.places.add(ll, c.places.counts[i])
	}
	return nil
}

// foldCSV streams a Mobike CSV through per-chunk place folds on the
// workers and returns their merge.
func foldCSV(r io.Reader, opts ScanOptions) (*placeFold, error) {
	opts = opts.withDefaults()
	chunks := make([]placeFold, opts.Workers)
	total := &placeFold{sum: emptySummary}
	err := scanChunks(r, opts,
		func(slot int, chunk []byte, base int) { chunks[slot].foldChunk(chunk, base) },
		func(slot int) error { return total.merge(&chunks[slot]) })
	return total, err
}

// ReadEndPoints returns the planar end points of the trips in a Mobike
// CSV as a multiset of places, projected around the centre of the data's
// own start+end geohash bounding box — exactly the fold of EndPoints
// after GeohashCenter and ProjectTrips, without materialising a []Trip.
// The file is read once. Each worker folds its chunks into a bounding
// box and the distinct end cell centres with their counts; the
// coordinator merges those in chunk order, and only the distinct
// centres are projected once the scan has given the projection centre.
// Peak memory is the scanner's O(ChunkSize × Workers) plus O(distinct
// end cells) per worker, whatever the row count.
//
// A malformed row or an invalid geohash fails the read at its row. An
// empty geohash fails it too, but ranks below both: the first one is
// held and reported, with its row's line, only once the scan has
// succeeded and some geohash gave a centre. With no geohash at all the
// error is ErrNoGeohashes, and a header-only CSV has no end points.
func ReadEndPoints(r io.Reader) (geo.Multiset, error) {
	return readEndPoints(r, ScanOptions{})
}

// readEndPoints is ReadEndPoints with explicit chunk and worker settings.
func readEndPoints(r io.Reader, opts ScanOptions) (geo.Multiset, error) {
	f, err := foldCSV(r, opts)
	if err != nil {
		return geo.Multiset{}, err
	}
	if f.sum.Trips == 0 {
		return geo.Multiset{}, nil
	}
	center, err := f.sum.Center()
	if err != nil {
		return geo.Multiset{}, err
	}
	if f.pending != nil {
		return geo.Multiset{}, f.pending
	}
	projector := geo.NewProjector(center)
	ends := make([]geo.Point, len(f.places.centres))
	for i, ll := range f.places.centres {
		ends[i] = projector.ToPlane(ll)
	}
	return geo.FoldWeighted(ends, f.places.counts), nil
}
