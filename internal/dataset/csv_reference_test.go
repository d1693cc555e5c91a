package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/geo"
)

// readCSVReference is the encoding/csv reader ReadCSV used to be, kept
// as the test oracle: the streaming scanner must accept and reject
// exactly what it does, with bit-identical trips (the differential
// matrix in scan_test.go and FuzzScanCSV). It parses trips in the
// Mobike schema, projecting geohash centres into the plane of
// projector; a nil projector leaves planar coordinates zero.
func readCSVReference(r io.Reader, projector *geo.Projector) ([]Trip, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("%w: column %d is %q, want %q", ErrBadHeader, i, header[i], want)
		}
	}
	var trips []Trip
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// csv.ParseError already carries the 1-based file line.
			return nil, fmt.Errorf("read: %w", err)
		}
		t, err := parseTripReference(rec, projector)
		if err != nil {
			// FieldPos reports the 1-based file line the record started
			// on (the header is line 1), consistent with csv's own
			// ParseError positions — blank and multi-line rows no
			// longer skew the count.
			line, _ := cr.FieldPos(0)
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		trips = append(trips, t)
	}
	return trips, nil
}

func parseTripReference(rec []string, projector *geo.Projector) (Trip, error) {
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
