package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/parallel"
)

func TestRunFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fig4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 4") || !strings.Contains(out, "meyerson") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// wallLines matches the lines of a run's output that carry wall time or
// the worker count: the [parallelism N] header and every
// [... completed in ...] line.
var wallLines = regexp.MustCompile(`(?m)^\[(parallelism [0-9]+|.* completed in .*)\]\n`)

// TestQuickAllGolden pins every experiment's quick-configuration output,
// at the default parallelism and fully sequential, to the committed
// golden file, apart from the lines wallLines drops. Re-pin it from the
// repository root, after a change that moves a table on purpose, with
//
//	go run ./cmd/esharing-bench -quick all | grep -Ev '^\[(parallelism [0-9]+|.* completed in .*)\]$' > cmd/esharing-bench/testdata/quick_all.golden
func TestQuickAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parallel.SetDefault(0) })
	for _, args := range [][]string{{"-quick", "all"}, {"-parallelism", "1", "-quick", "all"}} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if got := wallLines.ReplaceAllString(buf.String(), ""); got != string(want) {
			t.Errorf("%s: output differs from testdata/quick_all.golden:\n%s", strings.Join(args, " "), firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-json", "fig5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"tolerance"`) {
		t.Errorf("JSON output missing fields:\n%.200s", buf.String())
	}
}

func TestRunAliases(t *testing.T) {
	// fig9 aliases table3; use the quick flag to keep it fast.
	var buf bytes.Buffer
	if err := run([]string{"-quick", "fig9"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("fig9 should render the Table III study")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Error("no experiment should error")
	}
	if err := run([]string{"nonsense"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
	// Names resolve before anything runs.
	buf.Reset()
	if err := run([]string{"fig4", "nonsense"}, &buf); err == nil || strings.Contains(buf.String(), "Fig. 4") {
		t.Errorf("unknown experiment after fig4: err %v, output:\n%s", err, buf.String())
	}
}

func TestRunCompareErrors(t *testing.T) {
	var buf bytes.Buffer
	// Every failure here trips before any benchmark is measured, keeping
	// the test cheap: missing baseline, unparseable baseline, negative
	// tolerance, stray positional arguments.
	if err := run([]string{"compare", "-baseline", "/nonexistent/base.json"}, &buf); err == nil {
		t.Error("missing baseline file should error")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", "-baseline", bad}, &buf); err == nil {
		t.Error("unparseable baseline should error")
	}
	if err := run([]string{"compare", "-tolerance", "-0.5", "-baseline", bad}, &buf); err == nil {
		t.Error("negative tolerance should error")
	}
	if err := run([]string{"compare", "stray"}, &buf); err == nil {
		t.Error("positional arguments should error")
	}
}
