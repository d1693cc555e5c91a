package dataset

import (
	"fmt"
	"io"
	"math"

	"repro/internal/geo"
)

// readEndPointsReference is the row-by-row loader readEndPoints used to
// be, kept as the test oracle for the per-chunk place fold: ingestCSV
// parses every row into a rawTrip batch, and the coordinator folds each
// batch, row by row and in file order, into the bounding box and the
// places. FuzzReadEndPoints and TestScanSummaryMatchesMaterialized pin
// readEndPoints to it: the same error text, line included, and
// Float64bits-identical places and counts.
func readEndPointsReference(r io.Reader, opts ScanOptions) (geo.Multiset, error) {
	opts.decodeGeohashes = true
	opts.allowEmptyGeohash = true
	sum := ScanSummary{MinLat: 91, MinLng: 181, MaxLat: -91, MaxLng: -181}
	cell := make(map[[2]uint64]int) // end cell centre -> index in ends
	var ends []geo.Point            // distinct centres as Point{X: Lng, Y: Lat}
	var counts []int
	var pending error
	err := ingestCSV(r, opts, func(batch []rawTrip) error {
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
			if pending != nil {
				continue
			}
			if !rt.HasStartLL || !rt.HasEndLL {
				side := "end"
				if !rt.HasStartLL {
					side = "start"
				}
				pending = &RowError{Line: rt.Line, Err: fmt.Errorf("%s geohash: %w", side, geo.ErrInvalidGeohash)}
				continue
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
