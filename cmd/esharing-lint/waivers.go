package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The waiver budget: every //esharing:allow in production code must
// carry a ` -- justification`, and the total count must equal the
// committed baseline (.lint-waivers). Waivers are a ratchet — a change
// that removes one lowers the budget in the same commit, and raising it
// is a reviewed decision, not a side effect of silencing a finding.

// baselineFile holds the committed waiver budget, relative to the scan
// root.
const baselineFile = ".lint-waivers"

// waiver is one //esharing:allow directive found in the tree.
type waiver struct {
	pos           token.Position
	names         string
	justification string
}

// runWaivers implements `esharing-lint -waivers [root]`: it scans every
// non-test-data .go file under root, prints the waiver inventory, and
// fails when a waiver lacks a justification or the count differs from
// the committed baseline: above it, a waiver was added without review;
// below it, the budget was not ratcheted down with the removal.
func runWaivers(args []string) int {
	root := "."
	if len(args) > 0 {
		root = args[0]
	}
	waivers, err := collectWaivers(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esharing-lint: %v\n", err)
		return 1
	}
	exit := 0
	for _, w := range waivers {
		if w.justification == "" {
			fmt.Printf("%s: waiver %q lacks a justification; write //esharing:allow %s -- <why>\n",
				w.pos, w.names, w.names)
			exit = 2
		} else {
			fmt.Printf("%s: //esharing:allow %s -- %s\n", w.pos, w.names, w.justification)
		}
	}
	budget, err := readBudget(filepath.Join(root, baselineFile))
	if err != nil {
		fmt.Fprintf(os.Stderr, "esharing-lint: %v\n", err)
		return 1
	}
	switch {
	case len(waivers) > budget:
		fmt.Printf("%d waivers exceed the committed budget of %d (%s); remove one or raise the budget in review\n",
			len(waivers), budget, baselineFile)
		exit = 2
	case len(waivers) < budget:
		fmt.Printf("%d waivers under a budget of %d; ratchet %s down to %d\n",
			len(waivers), budget, baselineFile, len(waivers))
		exit = 2
	default:
		fmt.Printf("%d waivers, at the committed budget\n", len(waivers))
	}
	return exit
}

// collectWaivers parses every .go file under root (skipping testdata,
// vendored trees and dot-directories) and returns the directives in
// walk order. Matching mirrors lintkit: only comments that begin with
// //esharing:allow count, so prose mentioning the directive does not.
func collectWaivers(root string) ([]waiver, error) {
	var out []waiver
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || name == "bin" ||
				(strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//esharing:allow")
				if !ok {
					continue
				}
				names, justification, found := strings.Cut(rest, " -- ")
				w := waiver{pos: fset.Position(c.Pos()), names: strings.TrimSpace(names)}
				if found {
					w.justification = strings.TrimSpace(justification)
				}
				out = append(out, w)
			}
		}
		return nil
	})
	return out, err
}

// readBudget parses the baseline file: comment and blank lines are
// ignored, the first remaining line is the budget.
func readBudget(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read waiver budget: %w (commit a %s with the current count)", err, baselineFile)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return 0, fmt.Errorf("parse waiver budget %s: %w", path, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("waiver budget %s holds no number", path)
}
