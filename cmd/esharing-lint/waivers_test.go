package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeWaiverTree lays out a scan root holding justified waivers (plus
// one unjustified one when asked) and a committed budget.
func writeWaiverTree(t *testing.T, justified int, unjustified bool, budget int) string {
	t.Helper()
	root := t.TempDir()
	var src strings.Builder
	src.WriteString("package p\n\nfunc f(a, b float64) bool {\n")
	for i := 0; i < justified; i++ {
		fmt.Fprintf(&src, "\t_ = a == b //esharing:allow floateq -- exact tie %d\n", i)
	}
	if unjustified {
		src.WriteString("\t_ = a != b //esharing:allow floateq\n")
	}
	src.WriteString("\treturn true\n}\n")
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	budgetFile := fmt.Sprintf("# budget\n\n%d\n", budget)
	if err := os.WriteFile(filepath.Join(root, baselineFile), []byte(budgetFile), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestWaiverBudgetIsExact: the audit passes only when every waiver is
// justified and the count equals the budget. A count under the budget
// fails too, so a change that removes a waiver must ratchet the budget
// down in the same commit.
func TestWaiverBudgetIsExact(t *testing.T) {
	for _, tc := range []struct {
		name        string
		justified   int
		unjustified bool
		budget      int
		want        int
	}{
		{"at budget", 8, false, 8, 0},
		{"over budget", 8, false, 7, 2},
		{"under budget", 8, false, 9, 2},
		{"no justification", 7, true, 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := writeWaiverTree(t, tc.justified, tc.unjustified, tc.budget)
			if got := runWaivers([]string{root}); got != tc.want {
				t.Errorf("runWaivers = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestCommittedWaiverBudget: the repository's own .lint-waivers matches
// the waivers in its tree.
func TestCommittedWaiverBudget(t *testing.T) {
	if got := runWaivers([]string{"../.."}); got != 0 {
		t.Errorf("esharing-lint -waivers on the repository = %d, want 0", got)
	}
}
