package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
)

func TestRunGeneratesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-days", "2", "-weekday", "100", "-weekend", "80", "-bikes", "30", "-seed", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9042, Lng: 116.4074})
	trips, err := dataset.ReadCSV(&buf, projector)
	if err != nil {
		t.Fatalf("generated CSV unreadable: %v", err)
	}
	if len(trips) < 100 {
		t.Errorf("only %d trips generated", len(trips))
	}
}

// TestRunMatchesMaterializedWriter pins the streaming day-by-day output
// against the reference Generate + WriteCSV pipeline byte for byte, so
// switching tripgen to GenerateStream cannot change any existing
// artifact.
func TestRunMatchesMaterializedWriter(t *testing.T) {
	var got bytes.Buffer
	err := run([]string{"-days", "3", "-weekday", "120", "-weekend", "90", "-bikes", "25", "-seed", "7", "-surge", "1:19:60"}, &got)
	if err != nil {
		t.Fatal(err)
	}
	surge, err := parseSurge("1:19:60")
	if err != nil {
		t.Fatal(err)
	}
	trips, err := dataset.Generate(dataset.Config{
		Days: 3, TripsWeekday: 120, TripsWeekend: 90, Bikes: 25, Seed: 7,
		Surges: []dataset.Surge{surge},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, trips); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streaming output differs from materialized output (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestRunPinsCSVBytes pins tripgen's output to a SHA-256 recorded when
// the generator still encoded geohashes on every trip, so moving that
// encoding to the writer, or any other change to the generator or the
// CSV writer, cannot alter a generated file unnoticed. The comparison
// against Generate + WriteCSV above cannot see such a change, because
// both of its paths change together.
func TestRunPinsCSVBytes(t *testing.T) {
	const want = "521f7b5265367feaf632afee02a06bc2673cb3c585ba0e721ca9b8be7e6ac797"
	var buf bytes.Buffer
	if err := run([]string{"-days", "14", "-seed", "3", "-surge", "5:19:300"}, &buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("tripgen -days 14 -seed 3 -surge 5:19:300 wrote %d bytes with SHA-256 %s, want %s", buf.Len(), got, want)
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trips.csv")
	var buf bytes.Buffer
	if err := run([]string{"-days", "1", "-weekday", "50", "-bikes", "10", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("stdout should be empty when -o is set")
	}
}

// failingCloser accepts every write and fails its Close, as a file
// whose write-back fails does.
type failingCloser struct{ io.Writer }

var errWriteBack = errors.New("write-back failed")

func (failingCloser) Close() error { return errWriteBack }

// TestWriteFileReportsCloseError: an error that surfaces only at Close
// is returned, joined with an earlier write error when there is one.
func TestWriteFileReportsCloseError(t *testing.T) {
	cfg := dataset.Config{Days: 1, TripsWeekday: 50, Bikes: 10, Seed: 1}
	if _, err := writeFile(failingCloser{io.Discard}, cfg); !errors.Is(err, errWriteBack) {
		t.Fatalf("writeFile with a failing Close returned %v, want %v", err, errWriteBack)
	}
	errFull := errors.New("disk full")
	_, err := writeFile(failingCloser{failingWriter{errFull}}, cfg)
	if !errors.Is(err, errWriteBack) || !errors.Is(err, errFull) {
		t.Fatalf("writeFile with a failing write and Close returned %v, want both errors", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestRunWithSurge(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-days", "3", "-weekday", "50", "-bikes", "10", "-surge", "1:19:100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "orderid") {
		t.Error("missing header")
	}
}

func TestParseSurge(t *testing.T) {
	tests := []struct {
		spec    string
		wantErr bool
	}{
		{"5:19:300", false},
		{"5:23:300", false}, // hour end clamps
		{"bad", true},
		{"a:1:2", true},
		{"1:b:2", true},
		{"1:2:c", true},
	}
	for _, tt := range tests {
		_, err := parseSurge(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseSurge(%q) err=%v, wantErr=%v", tt.spec, err, tt.wantErr)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-days", "-2"}, &buf); err == nil {
		t.Error("negative days should error")
	}
	if err := run([]string{"-surge", "99:1:10", "-days", "2"}, &buf); err == nil {
		t.Error("out-of-range surge day should error")
	}
}
