package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// This file is the server's one CSV reader, the place fold behind
// ReadEndPoints and ScanSummarize; ReadCSV (csv.go) is the row-by-row
// encoding/csv reader it is tested against:
//
//   - scanChunks reads fixed-size chunks, aligns each chunk on a record
//     boundary (the last '\n' outside a quoted field), and hands chunks
//     to workers in parallel through internal/parallel. Records without
//     quotes — the entire Mobike schema in practice — are parsed in
//     place from byte slices with no per-field allocations; records
//     containing quotes fall back to a per-record encoding/csv parse and
//     ReadCSV's parseTrip, so quoting semantics and errors are
//     inherited rather than re-implemented.
//   - Each worker validates every field of its chunk but builds nothing
//     from the ids and the time: it folds the chunk into a bounding box
//     and a few hundred places, decoding each geohash cell once per
//     chunk, and the coordinator merges those, not rows.
//   - Chunk index = task index and the merge runs in chunk order, so
//     output is bit-identical to the row-by-row fold at any worker count
//     (FuzzScanCSV, FuzzReadEndPoints and the differential tests enforce
//     this, and check the fold against ReadCSV too).
//   - Peak memory is O(ChunkSize × Workers) plus the places, regardless
//     of file size: the coordinator owns one buffer per worker.
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

// scanChunks is the serial chunking coordinator every scan runs on. It
// validates the header, then cuts up to opts.Workers record-aligned
// chunks at a time, runs work on each in parallel (chunk index = slot),
// and then calls merge on the slots in chunk order. work(slot, chunk,
// base) receives a chunk that follows base newlines of the file and may
// touch only its own slot; a merge error ends the scan and is returned
// verbatim. opts must already carry its defaults.
func scanChunks(r io.Reader, opts ScanOptions, work func(slot int, chunk []byte, base int), merge func(slot int) error) error {
	s := &scanState{r: r, chunkSize: opts.ChunkSize}
	header, err := s.readHeader()
	if err != nil {
		return err
	}
	workers := opts.Workers
	bufs := make([][]byte, workers)
	// The header's buffer, which still holds the first rows as the
	// leftover, is worker 0's first chunk buffer.
	bufs[0] = header
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
// validating it against csvHeader exactly as encoding/csv would. It
// returns its read buffer, emptied, for reuse as a chunk buffer; the
// leftover it leaves lies inside that buffer.
func (s *scanState) readHeader() ([]byte, error) {
	whole := make([]byte, 0, s.chunkSize)
	buf := whole
	for {
		for !s.done && len(buf) < cap(buf) {
			n, err := s.r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				s.done = true
				break
			}
			if err != nil {
				return nil, err
			}
		}
		for {
			rec, n, ok := cutRecord(buf, s.done)
			if !ok {
				break
			}
			line := s.lines + 1
			s.lines += bytes.Count(buf[:n], nlBytes)
			buf = buf[n:]
			if bytes.IndexByte(rec, '"') < 0 {
				rec = bytes.TrimSuffix(rec, []byte{'\r'}) // as recordCutter strips
			}
			if len(rec) == 0 {
				continue // blank line before the header, as csv skips
			}
			if err := validateHeader(rec, line); err != nil {
				return nil, err
			}
			s.leftover = buf
			return whole[:0], nil
		}
		if s.done {
			return nil, fmt.Errorf("read header: %w", io.EOF)
		}
		// Consuming blank lines above may have shrunk the slice's spare
		// capacity to zero, so grow relative to the chunk size too.
		whole = make([]byte, len(buf), max(s.chunkSize, cap(buf)*2))
		copy(whole, buf)
		buf = whole
	}
}

// validateHeader checks the header record rec, which starts on file line
// line.
func validateHeader(rec []byte, line int) error {
	if bytes.IndexByte(rec, '"') >= 0 {
		// Quoted header fields are legal CSV; let encoding/csv unquote.
		fields, err := readRecord(rec, line)
		if err != nil {
			return fmt.Errorf("read header: %w", err)
		}
		return checkHeader(fields)
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
	// The leftover may live in another worker's buffer (or later in
	// this very buffer: at one worker, and for worker 0's first chunk,
	// which reuses the header's buffer — append copies front-ward,
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

// next returns the next non-blank record, with the 1-based file line it
// starts on and whether it contains a quote (and so takes the
// encoding/csv fallback). An unquoted record's trailing CR is stripped.
// ok is false at the end of the chunk.
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
		// A quoted record keeps its CR for encoding/csv to drop, as it
		// would in the file, so that its error columns are the file's.
		if !quoted && len(rec) > 0 && rec[len(rec)-1] == '\r' {
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

// fastRecord is the integer fields of a record containing no quotes,
// validated and decoded.
type fastRecord struct {
	ids [4]int64 // orderid, userid, bikeid, biketype
}

// maxFastDigits is the longest id run parseFast accepts: 18 decimal
// digits stay below 10^18 < 2^63, so the run cannot overflow int64.
const maxFastDigits = 18

// parseFast decodes the integers of rec into fr, validates the
// timestamp, and returns the two geohash fields. No allocations on
// success. fr holds no pointers and the fields come back in registers,
// so the per-row stores need no write barrier. It walks the record once,
// accepting the shape every Mobike row has: four runs of 1–18 unsigned
// digits, each ended by a comma, an 18- or 19-byte timestamp that
// checkMobikeTime accepts, and two comma-free geohash fields. Every
// other record goes to parseFieldSplit, which accepts signs and longer
// integers and words each error; on the records both accept they agree
// field for field (FuzzParseFast).
func parseFast(rec []byte, fr *fastRecord) (startGeohash, endGeohash []byte, err error) {
	i := 0
	for k := range fr.ids {
		var n uint64
		j, end := i, min(len(rec), i+maxFastDigits+1)
		for ; j < end; j++ {
			d := rec[j] - '0'
			if d > 9 {
				break
			}
			n = n*10 + uint64(d)
		}
		if j == i || j-i > maxFastDigits || j == len(rec) || rec[j] != ',' {
			return parseFieldSplit(rec, fr)
		}
		fr.ids[k] = int64(n)
		i = j + 1
	}
	// The timestamp ends at the comma 18 or 19 bytes on; a comma inside
	// either width fails checkMobikeTime, so the width is the field's.
	rest := rec[i:]
	var t int
	switch {
	case len(rest) > 18 && rest[18] == ',':
		t = 18
	case len(rest) > 19 && rest[19] == ',':
		t = 19
	default:
		return parseFieldSplit(rec, fr)
	}
	if checkMobikeTime(rest[:t]) != nil {
		return parseFieldSplit(rec, fr)
	}
	rest = rest[t+1:]
	c := bytes.IndexByte(rest, ',')
	if c < 0 || bytes.IndexByte(rest[c+1:], ',') >= 0 {
		return parseFieldSplit(rec, fr)
	}
	return rest[:c], rest[c+1:], nil
}

// parseFieldSplit is parseFast for any record containing no quotes: it
// splits rec into its seven fields, then decodes the integers (with an
// optional sign, any length that fits int64) and the timestamp, and
// words every error. It is parseFast's fallback and its oracle.
func parseFieldSplit(rec []byte, fr *fastRecord) (startGeohash, endGeohash []byte, err error) {
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
	if err = checkMobikeTime(f[4]); err != nil {
		return nil, nil, fmt.Errorf("starttime: %w", err)
	}
	return f[5], f[6], nil
}

// parseRecordSlow parses a record containing quotes, which starts on
// file line line, through encoding/csv and parseTrip: ReadCSV's own
// parse, so quoted records and ReadCSV accept the same fields with the
// same errors. It returns the two geohash fields.
func parseRecordSlow(rec []byte, line int) (startGeohash, endGeohash []byte, err error) {
	fields, err := readRecord(rec, line)
	if err != nil {
		return nil, nil, err
	}
	t, err := parseTrip(fields, nil)
	if err != nil {
		return nil, nil, err
	}
	return []byte(t.StartGeohash), []byte(t.EndGeohash), nil
}

// readRecord parses one record, which starts on file line line, through
// encoding/csv. A *csv.ParseError is re-based from the one-record
// reader's lines onto the file's, so it reads as ReadCSV's would.
func readRecord(rec []byte, line int) ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(rec))
	cr.FieldsPerRecord = len(csvHeader)
	fields, err := cr.Read()
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += line - 1
		pe.Line += line - 1
	}
	return fields, err
}

// cellCentre is a decoded geohash field: its cell centre, or ok false
// for an empty field.
type cellCentre struct {
	ll geo.LatLng
	ok bool
}

// decodeGeohashPair decodes a record's start and end geohash fields. An
// empty field is skipped rather than failed.
func decodeGeohashPair(start, end []byte) (s, e cellCentre, err error) {
	if len(start) > 0 {
		if s.ll, _, _, err = geo.DecodeGeohashBytes(start); err != nil {
			return s, e, fmt.Errorf("start geohash: %w", err)
		}
		s.ok = true
	}
	if len(end) > 0 {
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

// checkMobikeTime validates a timestamp against csvTimeLayout
// ("2006-01-02 15:04:05"), accepting exactly what time.Parse accepts.
// The shape of every Mobike row is checked from bytes; anything else,
// such as a run of spaces where the layout has one or a fractional
// second, goes to time.Parse itself.
func checkMobikeTime(b []byte) error {
	if !isMobikeTime(b) {
		if _, err := time.Parse(csvTimeLayout, string(b)); err != nil {
			return errBadTime
		}
	}
	return nil
}

// isMobikeTime reports whether b is a csvTimeLayout timestamp with one
// space and fixed-width fields but for a one- or two-digit hour ("15" is
// a non-padded verb), with month, day, hour, minute and second in range.
func isMobikeTime(b []byte) bool {
	if len(b) < 18 || len(b) > 19 {
		return false
	}
	if b[4] != '-' || b[7] != '-' || b[10] != ' ' {
		return false
	}
	year, ok := atoiFixed(b[0:4])
	month, ok2 := atoiFixed(b[5:7])
	day, ok3 := atoiFixed(b[8:10])
	if !ok || !ok2 || !ok3 {
		return false
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
		return false
	}
	if rest+6 != len(b) || b[rest] != ':' || b[rest+3] != ':' {
		return false
	}
	minute, ok := atoiFixed(b[rest+1 : rest+3])
	sec, ok2 := atoiFixed(b[rest+4 : rest+6])
	if !ok || !ok2 {
		return false
	}
	return month >= 1 && month <= 12 && day >= 1 && day <= daysIn(month, year) &&
		hour <= 23 && minute <= 59 && sec <= 59
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

// add adds n trips to the place at ll and returns its position.
func (p *places) add(ll geo.LatLng, n int) int {
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
	return k
}

// maxPackedGeohash is the longest geohash packGeohash packs: 12
// characters of 5 bits and a 4-bit length fill a uint64.
const maxPackedGeohash = 12

// geohashCode numbers the bytes of the geohash alphabet 0–31 in byte
// order and marks every other byte 0xFF. The alphabet is the one
// geo.DecodeGeohashBytes accepts, probed one byte at a time, so the two
// cannot drift apart.
var geohashCode = func() [256]uint8 {
	var t [256]uint8
	code := uint8(0)
	for b := range t {
		t[b] = 0xFF
		if _, _, _, err := geo.DecodeGeohashBytes([]byte{byte(b)}); err == nil {
			t[b] = code
			code++
		}
	}
	if code != 32 {
		panic(fmt.Sprintf("dataset: geohash alphabet has %d bytes, want 32", code))
	}
	return t
}()

// packGeohash packs a geohash of 1–12 alphabet bytes into a key unique
// to it: the characters' codes, 5 bits each, above the length in the low
// 4 bits, so no key is 0. ok is false for an empty field, a longer one
// or a byte outside the alphabet; those decode on the unpacked path,
// which also words their errors.
func packGeohash(h []byte) (key uint64, ok bool) {
	if len(h) == 0 || len(h) > maxPackedGeohash {
		return 0, false
	}
	for _, c := range h {
		v := geohashCode[c]
		if v == 0xFF {
			return 0, false
		}
		key = key<<5 | uint64(v)
	}
	return key<<4 | uint64(len(h)), true
}

// cellTableSlots is a cell table's starting size: 12 KiB, room for 768
// cells before it doubles, where a 1 MiB chunk of the city CSV holds
// about 470.
const cellTableSlots = 1 << 10

// cellTable is an open-addressing map, linearly probed, from packed
// geohashes to place positions, emptied for every chunk. A zero key
// marks a free slot.
type cellTable struct {
	keys  []uint64
	vals  []int32
	n     int
	shift uint // 64 - log2(len(keys))
}

// reset empties t, allocating its slots on first use.
func (t *cellTable) reset() {
	if t.keys == nil {
		t.alloc(cellTableSlots)
	} else if t.n > 0 {
		clear(t.keys)
	}
	t.n = 0
}

func (t *cellTable) alloc(slots int) {
	t.keys, t.vals = make([]uint64, slots), make([]int32, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// slot returns the value slot of key, inserting key when absent; fresh
// reports the insertion, whose slot the caller fills.
func (t *cellTable) slot(key uint64) (v *int32, fresh bool) {
	mask := uint64(len(t.keys) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return &t.vals[i], false
		case 0:
			if 4*(t.n+1) > 3*len(t.keys) {
				t.grow()
				return t.slot(key)
			}
			t.keys[i] = key
			t.n++
			return &t.vals[i], true
		}
	}
}

// grow doubles t, reinserting every key with its value.
func (t *cellTable) grow() {
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(keys))
	t.n = 0
	for i, k := range keys {
		if k != 0 {
			v, _ := t.slot(k)
			*v = vals[i]
		}
	}
}

// placeFold is the fold of a run of rows into places: the rows'
// summary, the distinct end cell centres of the rows with both
// geohashes, the first row with an empty geohash, held as pending, and
// the first malformed row, where a chunk's fold stops. One placeFold per
// worker folds a chunk and is reused across rounds; one more holds the
// merge of the chunks in chunk order. starts and ends are the chunk's
// cell tables: the packed start cells already in the box, and the packed
// end cells with their positions in places.
type placeFold struct {
	sum          ScanSummary
	places       places
	starts, ends cellTable
	pending      *RowError
	err          *RowError
}

// foldChunk folds every record in a record-aligned chunk that follows
// base newlines of the file. Every field of a record is validated, but
// nothing is built from the ids and the time. It runs inside
// parallel.For: it only touches its own chunk and fold.
func (f *placeFold) foldChunk(chunk []byte, base int) {
	f.sum = emptySummary
	clear(f.places.index)
	f.places.centres, f.places.counts = f.places.centres[:0], f.places.counts[:0]
	f.starts.reset()
	f.ends.reset()
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
			// The encoding/csv fallback, which decodes and skips empty
			// geohashes as the fast path does.
			var startGeohash, endGeohash []byte
			if startGeohash, endGeohash, err = parseRecordSlow(rec, line); err == nil {
				start, end, err = decodeGeohashPair(startGeohash, endGeohash)
			}
		} else {
			var fr fastRecord
			var startGeohash, endGeohash []byte
			if startGeohash, endGeohash, err = parseFast(rec, &fr); err == nil {
				startKey, startOK := packGeohash(startGeohash)
				endKey, endOK := packGeohash(endGeohash)
				if startOK && endOK {
					f.foldCells(startKey, startGeohash, endKey, endGeohash)
					continue
				}
				start, end, err = decodeGeohashPair(startGeohash, endGeohash)
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

// foldCells folds a row whose two geohashes both pack, so both are
// valid. Each cell is decoded and widens the box only the first time the
// chunk sees it; later rows only count their end cell's trip. The box's
// min and max ignore repeats and places merges equal centres, so this
// is the row-by-row fold bit for bit.
func (f *placeFold) foldCells(startKey uint64, startGeohash []byte, endKey uint64, endGeohash []byte) {
	f.sum.Trips++
	if _, fresh := f.starts.slot(startKey); fresh {
		f.sum.include(decodeCell(startGeohash))
	}
	k, fresh := f.ends.slot(endKey)
	if fresh {
		ll := decodeCell(endGeohash)
		f.sum.include(ll)
		*k = int32(f.places.add(ll, 0))
	}
	f.places.counts[*k]++
}

// decodeCell decodes a geohash that packGeohash packed, which cannot
// fail.
func decodeCell(h []byte) geo.LatLng {
	ll, _, _, _ := geo.DecodeGeohashBytes(h)
	return ll
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
