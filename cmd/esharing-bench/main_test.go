package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
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
