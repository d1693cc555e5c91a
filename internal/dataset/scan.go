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
//   - IngestCSV reads fixed-size chunks, aligns each chunk on a record
//     boundary (the last '\n' outside a quoted field), and parses chunks
//     in parallel through internal/parallel. Records without quotes — the
//     entire Mobike schema in practice — are parsed in place from byte
//     slices with no per-field allocations; records containing quotes
//     fall back to a per-record encoding/csv parse, so quoting semantics
//     are inherited rather than re-implemented.
//   - Chunk index = task index and the fold over parsed batches runs in
//     chunk order, so output is bit-identical to the sequential
//     encoding/csv oracle at any worker count (FuzzScanCSV and the
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
	// centres during the parallel parse. Each consumer (ReadCSV,
	// ScanSummarize, ReadEndPoints) sets it for itself.
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
	// (ReadCSV with a projector, ScanSummarize, ReadEndPoints). Has*LL
	// is false only for an empty field under ScanSummarize.
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
	s := &scanState{r: r, chunkSize: opts.ChunkSize}
	if err := s.readHeader(); err != nil {
		return err
	}
	workers := opts.Workers
	bufs := make([][]byte, workers)
	chunks := make([][]byte, workers)
	bases := make([]int, workers)
	parses := make([]chunkParse, workers)
	po := &opts
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
		// Deterministic parallel parse: chunk index = task index.
		parallel.For(workers, n, func(_, i int) {
			parseChunk(chunks[i], bases[i], po, &parses[i])
		})
		// In-order fold.
		for i := 0; i < n; i++ {
			p := &parses[i]
			if p.err != nil {
				return p.err
			}
			if len(p.trips) > 0 {
				if err := emit(p.trips); err != nil {
					return err
				}
			}
		}
	}
}

var nlBytes = []byte{'\n'}

// scanState is the serial chunking coordinator.
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
	lines := base + 1 // file line of the next record
	pos := 0
	for pos < len(chunk) {
		rest := chunk[pos:]
		// Fast cut: a record with no quote before its first newline ends
		// there; only a quoted prefix needs the parity scan, and only
		// the parity-cut record can contain quotes at all.
		var rec []byte
		var n int
		quoted := false
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			rec, n = rest[:nl], nl+1
			quoted = bytes.IndexByte(rec, '"') >= 0
		} else {
			rec, n = rest, len(rest) // final record, no terminator
			quoted = bytes.IndexByte(rec, '"') >= 0
		}
		if quoted {
			rec, n, _ = cutRecord(rest, true)
		}
		recLine := lines
		if chunk[pos+n-1] == '\n' {
			lines++
		}
		pos += n
		if len(rec) > 0 && rec[len(rec)-1] == '\r' {
			rec = rec[:len(rec)-1]
		}
		if len(rec) == 0 {
			continue // blank line, as csv skips
		}
		if len(out.trips) < cap(out.trips) {
			out.trips = out.trips[:len(out.trips)+1]
		} else {
			out.trips = append(out.trips, RawTrip{})
		}
		rt := &out.trips[len(out.trips)-1]
		rt.Line = recLine
		var err error
		if quoted {
			// Only quoted records can span lines.
			lines += bytes.Count(rec, nlBytes)
			err = parseRecordSlow(rec, opts, rt)
		} else {
			err = parseRecordFast(rec, opts, rt)
		}
		if err != nil {
			out.trips = out.trips[:len(out.trips)-1]
			out.err = &RowError{Line: recLine, Err: err}
			return
		}
	}
}

// parseRecordFast parses a record containing no quotes: seven fields
// split in one pass, integers and the timestamp decoded from bytes. No
// allocations on success. Every RawTrip field is assigned, so a dirty
// reused slot is fully overwritten.
func parseRecordFast(rec []byte, opts *ScanOptions, rt *RawTrip) error {
	var f [7][]byte
	nf, start := 0, 0
	for i := 0; i < len(rec); i++ {
		if rec[i] == ',' {
			if nf == 6 {
				return errFieldCount
			}
			f[nf] = rec[start:i]
			nf++
			start = i + 1
		}
	}
	if nf != 6 {
		return errFieldCount
	}
	f[6] = rec[start:]
	var err error
	if rt.OrderID, err = parseInt64(f[0]); err != nil {
		return fmt.Errorf("orderid: %w", err)
	}
	if rt.UserID, err = parseInt64(f[1]); err != nil {
		return fmt.Errorf("userid: %w", err)
	}
	if rt.BikeID, err = parseInt64(f[2]); err != nil {
		return fmt.Errorf("bikeid: %w", err)
	}
	bikeType, err := parseInt64(f[3])
	if err != nil {
		return fmt.Errorf("biketype: %w", err)
	}
	rt.BikeType = int(bikeType)
	if rt.StartTime, err = parseMobikeTime(f[4]); err != nil {
		return fmt.Errorf("starttime: %w", err)
	}
	rt.StartGeohash, rt.EndGeohash = f[5], f[6]
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
	if len(rt.StartGeohash) > 0 || !opts.allowEmptyGeohash {
		ll, _, _, err := geo.DecodeGeohashBytes(rt.StartGeohash)
		if err != nil {
			return fmt.Errorf("start geohash: %w", err)
		}
		rt.StartLL, rt.HasStartLL = ll, true
	}
	if len(rt.EndGeohash) > 0 || !opts.allowEmptyGeohash {
		ll, _, _, err := geo.DecodeGeohashBytes(rt.EndGeohash)
		if err != nil {
			return fmt.Errorf("end geohash: %w", err)
		}
		rt.EndLL, rt.HasEndLL = ll, true
	}
	return nil
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

// parseMobikeTime parses csvTimeLayout ("2006-01-02 15:04:05") from
// bytes, accepting the same inputs time.Parse does for that layout: the
// hour may be one or two digits ("15" is a non-padded verb), everything
// else is fixed-width, and month/day/hour/minute/second are
// range-checked. The result is bit-identical to time.Parse's (both are
// wall-clock UTC).
func parseMobikeTime(b []byte) (time.Time, error) {
	if len(b) < 18 || len(b) > 19 {
		return time.Time{}, errBadTime
	}
	if b[4] != '-' || b[7] != '-' || b[10] != ' ' {
		return time.Time{}, errBadTime
	}
	year, ok := atoiFixed(b[0:4])
	month, ok2 := atoiFixed(b[5:7])
	day, ok3 := atoiFixed(b[8:10])
	if !ok || !ok2 || !ok3 {
		return time.Time{}, errBadTime
	}
	var hour, rest int
	switch {
	case isDigit(b[11]) && isDigit(b[12]):
		hour = int(b[11]-'0')*10 + int(b[12]-'0')
		rest = 13
	case isDigit(b[11]):
		hour = int(b[11] - '0')
		rest = 12
	default:
		return time.Time{}, errBadTime
	}
	if rest+6 != len(b) || b[rest] != ':' || b[rest+3] != ':' {
		return time.Time{}, errBadTime
	}
	minute, ok := atoiFixed(b[rest+1 : rest+3])
	sec, ok2 := atoiFixed(b[rest+4 : rest+6])
	if !ok || !ok2 {
		return time.Time{}, errBadTime
	}
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, errBadTime
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC), nil
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
	return scanSummarizeVisit(r, opts, nil)
}

// scanSummarizeVisit is ScanSummarize that also hands every batch, its
// geohashes decoded as ScanSummarize decodes them, to visit after
// folding it, so a consumer that needs both the rows and the summary
// reads the file once. A nil visit is ScanSummarize; a visit error
// aborts the scan and is returned verbatim.
func scanSummarizeVisit(r io.Reader, opts ScanOptions, visit func(batch []RawTrip) error) (ScanSummary, error) {
	opts.decodeGeohashes = true
	opts.allowEmptyGeohash = true
	sum := ScanSummary{MinLat: 91, MinLng: 181, MaxLat: -91, MaxLng: -181}
	err := IngestCSV(r, opts, func(batch []RawTrip) error {
		for i := range batch {
			rt := &batch[i]
			sum.Trips++
			if rt.HasStartLL {
				sum.Seen = true
				sum.MinLat, sum.MaxLat = min(sum.MinLat, rt.StartLL.Lat), max(sum.MaxLat, rt.StartLL.Lat)
				sum.MinLng, sum.MaxLng = min(sum.MinLng, rt.StartLL.Lng), max(sum.MaxLng, rt.StartLL.Lng)
			}
			if rt.HasEndLL {
				sum.Seen = true
				sum.MinLat, sum.MaxLat = min(sum.MinLat, rt.EndLL.Lat), max(sum.MaxLat, rt.EndLL.Lat)
				sum.MinLng, sum.MaxLng = min(sum.MinLng, rt.EndLL.Lng), max(sum.MaxLng, rt.EndLL.Lng)
			}
		}
		if visit != nil {
			return visit(batch)
		}
		return nil
	})
	if err != nil {
		return ScanSummary{}, err
	}
	return sum, nil
}

// ReadEndPoints returns the planar end points of the trips in a Mobike
// CSV as a multiset of places, projected around the centre of the data's
// own start+end geohash bounding box — exactly the fold of EndPoints
// after GeohashCenter and ProjectTrips, without materialising a []Trip.
// The file is read once. Rows fold as they are scanned, keyed on the
// decoded end cell centre, and only the distinct centres are projected
// once the scan has given the projection centre. Peak memory is the
// scanner's O(ChunkSize × Workers) plus O(distinct end cells), whatever
// the row count.
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
	// The index is keyed on the centre's bits, which hash faster than
	// float keys; FoldWeighted merges any two keys that compare equal.
	cell := make(map[[2]uint64]int) // end cell centre -> index in ends
	var ends []geo.Point            // distinct centres as Point{X: Lng, Y: Lat}
	var counts []int
	var pending error
	sum, err := scanSummarizeVisit(r, opts, func(batch []RawTrip) error {
		if pending != nil {
			return nil
		}
		for i := range batch {
			rt := &batch[i]
			if !rt.HasStartLL || !rt.HasEndLL {
				side := "end"
				if !rt.HasStartLL {
					side = "start"
				}
				pending = &RowError{Line: rt.Line, Err: fmt.Errorf("%s geohash: %w", side, geo.ErrInvalidGeohash)}
				return nil
			}
			key := [2]uint64{math.Float64bits(rt.EndLL.Lat), math.Float64bits(rt.EndLL.Lng)}
			k, ok := cell[key]
			if !ok {
				k = len(ends)
				cell[key] = k
				ends = append(ends, geo.Point{X: rt.EndLL.Lng, Y: rt.EndLL.Lat})
				counts = append(counts, 0)
			}
			counts[k]++
		}
		return nil
	})
	if err != nil {
		return geo.Multiset{}, err
	}
	if sum.Trips == 0 {
		return geo.Multiset{}, nil
	}
	center, err := sum.Center()
	if err != nil {
		return geo.Multiset{}, err
	}
	if pending != nil {
		return geo.Multiset{}, pending
	}
	projector := geo.NewProjector(center)
	for i, ll := range ends {
		ends[i] = projector.ToPlane(geo.LatLng{Lat: ll.Y, Lng: ll.X})
	}
	return geo.FoldWeighted(ends, counts), nil
}
