package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/geo"
)

// The Mobike Big Data Challenge CSV schema:
//
//	orderid,userid,bikeid,biketype,starttime,geohashed_start_loc,geohashed_end_loc
//
// starttime is formatted "2017-05-10 13:14:15". This codec round-trips
// that schema exactly so the real dataset can be dropped in when
// available.

// csvHeader is the canonical column list.
var csvHeader = []string{
	"orderid", "userid", "bikeid", "biketype", "starttime",
	"geohashed_start_loc", "geohashed_end_loc",
}

const csvTimeLayout = "2006-01-02 15:04:05"

// ErrBadHeader is returned when a CSV stream does not begin with the
// Mobike schema header.
var ErrBadHeader = errors.New("dataset: unexpected CSV header")

// WriteCSV writes trips in the Mobike schema. Output is byte-identical
// to encoding/csv's (the CSVWriter it delegates to replicates its
// quoting rules), without the seven per-trip strconv.Format* strings the
// previous implementation allocated.
func WriteCSV(w io.Writer, trips []Trip) error {
	cw := NewCSVWriter(w)
	if err := cw.WriteHeader(); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	if err := cw.WriteTrips(trips); err != nil {
		return err
	}
	return cw.Flush()
}

// CSVWriter streams trips in the Mobike schema through a reused append
// buffer: integers via strconv.AppendInt, the timestamp via
// Time.AppendFormat, geohashes quoted exactly as encoding/csv would
// (byte-identical output). Zero allocations per trip once the buffer is
// warm, so tripgen can generate multi-GB fixtures at disk speed.
type CSVWriter struct {
	w   io.Writer
	buf []byte
}

// csvFlushAt bounds the internal buffer: WriteTrips flushes whenever the
// buffer exceeds it, keeping memory O(1) in the trip count.
const csvFlushAt = 64 << 10

// NewCSVWriter returns a streaming writer. Call WriteHeader, then any
// number of WriteTrips, then Flush.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: w}
}

// WriteHeader writes the canonical Mobike column header.
func (cw *CSVWriter) WriteHeader() error {
	for i, col := range csvHeader {
		if i > 0 {
			cw.buf = append(cw.buf, ',')
		}
		cw.buf = appendCSVField(cw.buf, col)
	}
	cw.buf = append(cw.buf, '\n')
	return cw.maybeFlush()
}

// WriteTrips appends trips, flushing the internal buffer as it fills.
func (cw *CSVWriter) WriteTrips(trips []Trip) error {
	for i := range trips {
		t := &trips[i]
		cw.buf = strconv.AppendInt(cw.buf, t.OrderID, 10)
		cw.buf = append(cw.buf, ',')
		cw.buf = strconv.AppendInt(cw.buf, t.UserID, 10)
		cw.buf = append(cw.buf, ',')
		cw.buf = strconv.AppendInt(cw.buf, t.BikeID, 10)
		cw.buf = append(cw.buf, ',')
		cw.buf = strconv.AppendInt(cw.buf, int64(t.BikeType), 10)
		cw.buf = append(cw.buf, ',')
		cw.buf = t.StartTime.AppendFormat(cw.buf, csvTimeLayout)
		cw.buf = append(cw.buf, ',')
		cw.buf = appendCSVField(cw.buf, t.StartGeohash)
		cw.buf = append(cw.buf, ',')
		cw.buf = appendCSVField(cw.buf, t.EndGeohash)
		cw.buf = append(cw.buf, '\n')
		if len(cw.buf) > csvFlushAt {
			if err := cw.flush(); err != nil {
				return fmt.Errorf("write trip %d: %w", t.OrderID, err)
			}
		}
	}
	return nil
}

// Flush writes any buffered bytes through.
func (cw *CSVWriter) Flush() error { return cw.flush() }

func (cw *CSVWriter) maybeFlush() error {
	if len(cw.buf) > csvFlushAt {
		return cw.flush()
	}
	return nil
}

func (cw *CSVWriter) flush() error {
	if len(cw.buf) == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.buf)
	cw.buf = cw.buf[:0]
	return err
}

// appendCSVField appends s, quoting exactly when encoding/csv's
// fieldNeedsQuotes would: on a comma, quote, CR or LF anywhere, a
// leading space rune, or the literal `\.`.
func appendCSVField(buf []byte, s string) []byte {
	if !csvFieldNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, s[i])
		}
	}
	return append(buf, '"')
}

func csvFieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true // encoding/csv guards Postgres's end-of-data marker
	}
	if strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV parses trips in the Mobike schema row by row through
// encoding/csv, projecting geohash centres into the plane of projector.
// A nil projector leaves planar coordinates zero and does not decode
// geohashes. It holds every trip in memory; the server reads a CSV only
// through ReadEndPoints, which parses every record that is not a plain
// Mobike row with parseTrip, and the differential tests pin that fold to
// this reader.
func ReadCSV(r io.Reader, projector *geo.Projector) ([]Trip, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // any header width: checkHeader refuses a wrong one
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	cr.FieldsPerRecord = len(csvHeader)
	var trips []Trip
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return trips, nil
		}
		if err != nil {
			// csv.ParseError already carries the 1-based file line.
			return nil, fmt.Errorf("read: %w", err)
		}
		t, err := parseTrip(rec, projector)
		if err != nil {
			// The file line the record starts on, as csv counts it.
			line, _ := cr.FieldPos(0)
			return nil, &RowError{Line: line, Err: err}
		}
		trips = append(trips, t)
	}
}

// checkHeader checks a parsed header record against csvHeader.
func checkHeader(fields []string) error {
	if len(fields) != len(csvHeader) {
		return fmt.Errorf("%w: %d columns, want %d", ErrBadHeader, len(fields), len(csvHeader))
	}
	for i, want := range csvHeader {
		if fields[i] != want {
			return fmt.Errorf("%w: column %d is %q, want %q", ErrBadHeader, i, fields[i], want)
		}
	}
	return nil
}

// parseTrip parses one record of the Mobike schema. A nil projector
// leaves the geohashes undecoded and the planar coordinates zero.
func parseTrip(rec []string, projector *geo.Projector) (Trip, error) {
	var t Trip
	var err error
	if t.OrderID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
		return Trip{}, fmt.Errorf("orderid: %w", err)
	}
	if t.UserID, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
		return Trip{}, fmt.Errorf("userid: %w", err)
	}
	if t.BikeID, err = strconv.ParseInt(rec[2], 10, 64); err != nil {
		return Trip{}, fmt.Errorf("bikeid: %w", err)
	}
	if t.BikeType, err = strconv.Atoi(rec[3]); err != nil {
		return Trip{}, fmt.Errorf("biketype: %w", err)
	}
	if t.StartTime, err = time.Parse(csvTimeLayout, rec[4]); err != nil {
		return Trip{}, fmt.Errorf("starttime: %w", err)
	}
	t.StartGeohash = rec[5]
	t.EndGeohash = rec[6]
	if projector != nil {
		start, _, _, err := geo.DecodeGeohash(t.StartGeohash)
		if err != nil {
			return Trip{}, fmt.Errorf("start geohash: %w", err)
		}
		end, _, _, err := geo.DecodeGeohash(t.EndGeohash)
		if err != nil {
			return Trip{}, fmt.Errorf("end geohash: %w", err)
		}
		t.Start = projector.ToPlane(start)
		t.End = projector.ToPlane(end)
	}
	return t, nil
}
