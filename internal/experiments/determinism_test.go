package experiments

import (
	"bytes"
	"testing"
)

// The determinism backstop behind the static analyzers: every table run
// twice in-process with the same seed must render byte-identical output.
// Where the analyzers prove the absence of specific nondeterminism
// shapes (map-order escapes, wall-clock reads, global rand), this test
// catches whatever they cannot name — and, run under -race in CI with
// Workers > 1, it doubles as a data-race probe on the fork-join paths.

// renderTwice runs the experiment twice from identical configs and
// fails on the first byte that differs.
func renderTwice(t *testing.T, name string, run func() (Renderable, error)) {
	t.Helper()
	render := func() []byte {
		t.Helper()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}
	first, second := render(), render()
	if !bytes.Equal(first, second) {
		t.Errorf("%s: two same-seed runs rendered different bytes\nfirst:\n%s\nsecond:\n%s", name, first, second)
	}
}

func TestTable3RendersIdenticalTwice(t *testing.T) {
	cfg := QuickTable3Config()
	cfg.Workers = 4
	renderTwice(t, "table3", func() (Renderable, error) { return RunTable3(cfg) })
}

func TestTable4RendersIdenticalTwice(t *testing.T) {
	cfg := DefaultTable4Config()
	cfg.TripsWeekday, cfg.TripsWeekend = 700, 500
	cfg.SamplePerDay = 120
	cfg.Workers = 4
	renderTwice(t, "table4", func() (Renderable, error) { return RunTable4(cfg) })
}

func TestFig4RendersIdenticalTwice(t *testing.T) {
	cfg := DefaultFig4Config()
	renderTwice(t, "fig4", func() (Renderable, error) { return RunFig4(cfg) })
}

func TestTable2RendersIdenticalTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 trains LSTM grids")
	}
	cfg := QuickTable2Config()
	cfg.Workers = 4
	renderTwice(t, "table2", func() (Renderable, error) { return RunTable2(cfg) })
}

func TestTable5RendersIdenticalTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 sweeps regions and trains an LSTM")
	}
	cfg := QuickTable5Config()
	cfg.Regions = 4
	cfg.TripsWeekday, cfg.TripsWeekend = 1200, 900
	cfg.Epochs = 5
	cfg.Workers = 4
	renderTwice(t, "table5", func() (Renderable, error) { return RunTable5(cfg) })
}
