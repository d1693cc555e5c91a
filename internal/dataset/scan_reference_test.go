package dataset

import (
	"fmt"
	"io"
	"math"

	"repro/internal/geo"
)

// readEndPointsReference is the row-by-row fold kept as the test oracle
// for the per-chunk place fold: one unchunked walk over the records of
// the whole input, each parsed by a fresh slowParser (ReadCSV's
// encoding/csv and parseTrip parse, never parseFast, and no reader
// carried from record to record) and its geohashes decoded, then folded
// in file order into the bounding box and a map of places. No chunk, no
// worker and no cell table is involved. FuzzReadEndPoints and the
// differential matrix pin readEndPoints to it: the same error text, line
// included, and Float64bits-identical places and counts.
func readEndPointsReference(r io.Reader) (geo.Multiset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return geo.Multiset{}, err
	}
	cut := recordCutter{chunk: data, line: 1}
	header, line, _, ok := cut.next()
	if !ok {
		return geo.Multiset{}, fmt.Errorf("read header: %w", io.EOF)
	}
	if err := validateHeader(header, line); err != nil {
		return geo.Multiset{}, err
	}
	sum := ScanSummary{MinLat: 91, MinLng: 181, MaxLat: -91, MaxLng: -181}
	cell := make(map[[2]uint64]int) // end cell centre -> index in ends
	var ends []geo.Point            // distinct centres as Point{X: Lng, Y: Lat}
	var counts []int
	var pending error
	for {
		rec, line, _, ok := cut.next()
		if !ok {
			break
		}
		startGeohash, endGeohash, err := new(slowParser).parse(rec, line)
		var start, end cellCentre
		if err == nil {
			start, end, err = decodeGeohashPair(startGeohash, endGeohash)
		}
		if err != nil {
			return geo.Multiset{}, &RowError{Line: line, Err: err}
		}
		sum.Trips++
		for _, c := range []cellCentre{start, end} {
			if c.ok {
				sum.Seen = true
				sum.MinLat, sum.MaxLat = min(sum.MinLat, c.ll.Lat), max(sum.MaxLat, c.ll.Lat)
				sum.MinLng, sum.MaxLng = min(sum.MinLng, c.ll.Lng), max(sum.MaxLng, c.ll.Lng)
			}
		}
		if pending != nil {
			continue
		}
		if !start.ok || !end.ok {
			side := "end"
			if !start.ok {
				side = "start"
			}
			pending = &RowError{Line: line, Err: fmt.Errorf("%s geohash: %w", side, geo.ErrInvalidGeohash)}
			continue
		}
		key := [2]uint64{math.Float64bits(end.ll.Lat), math.Float64bits(end.ll.Lng)}
		k, ok := cell[key]
		if !ok {
			k = len(ends)
			cell[key] = k
			ends = append(ends, geo.Point{X: end.ll.Lng, Y: end.ll.Lat})
			counts = append(counts, 0)
		}
		counts[k]++
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
