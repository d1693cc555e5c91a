package experiments

import (
	"reflect"
	"testing"
)

// expWorkerCounts are the parallelism levels every table differential
// runs at, against the Workers=1 sequential reference.
var expWorkerCounts = []int{2, 4, 7}

// The table sweeps key every random draw on a task index (trial, region,
// grid cell, day pair), so the parallel map-reduces must be bit-identical
// to the sequential run — reflect.DeepEqual on the full result structs,
// floats included.

func TestTable3WorkersBitIdentical(t *testing.T) {
	cfg := QuickTable3Config()
	cfg.Workers = 1
	want, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range expWorkerCounts {
		cfg.Workers = workers
		got, err := RunTable3(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: table3 diverged from sequential run\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTable4WorkersBitIdentical(t *testing.T) {
	cfg := DefaultTable4Config()
	cfg.TripsWeekday, cfg.TripsWeekend = 700, 500
	cfg.SamplePerDay = 120
	cfg.Workers = 1
	want, err := RunTable4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range expWorkerCounts {
		cfg.Workers = workers
		got, err := RunTable4(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: table4 diverged from sequential run\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTable2WorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 trains LSTM grids")
	}
	cfg := QuickTable2Config()
	cfg.Workers = 1
	want, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range expWorkerCounts {
		cfg.Workers = workers
		got, err := RunTable2(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: table2 diverged from sequential run\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTable5WorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 sweeps regions and trains an LSTM")
	}
	cfg := QuickTable5Config()
	// Shrink the workload below the quick size: the differential runs
	// RunTable5 four times, and region count, not volume, is what the
	// parallel fan-out keys on, so it keeps four regions.
	cfg.Regions = 4
	cfg.TripsWeekday, cfg.TripsWeekend = 1200, 900
	cfg.Epochs = 5
	cfg.Workers = 1
	want, err := RunTable5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range expWorkerCounts {
		cfg.Workers = workers
		got, err := RunTable5(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: table5 diverged from sequential run\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}
