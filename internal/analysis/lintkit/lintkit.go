// Package lintkit is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that the esharing-lint suite
// needs. The real x/tools module is deliberately not a dependency: the
// repository builds with the standard library alone, and the nine
// project analyzers (seededrand, nowalltime, guardedby, floateq,
// hotpathalloc, mapiter, detcallback, chanlock, walerr) only require
// parsed files, type information, an intra-package call graph and a
// diagnostic sink — all of which the standard library provides.
//
// The shapes mirror x/tools on purpose (Analyzer with a Run(*Pass)
// hook, Pass.Reportf, analysistest-style golden packages) so the suite
// could be ported to the real framework by swapping imports if the
// dependency ever becomes available.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //esharing:allow suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects a package via pass and reports findings with
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned inside pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed compilation units, with comments.
	Files []*ast.File
	// Path is the package's import path (e.g. "repro/internal/core").
	// Analyzers scope themselves with it; testdata packages are loaded
	// under the production path they exercise.
	Path string
	// Pkg and Info hold the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info

	diags   *[]Diagnostic
	allowed map[allowKey]bool
}

type allowKey struct {
	file string
	line int
	name string
}

// Reportf records a diagnostic unless an //esharing:allow directive on
// the same line (or the line directly above, for full-line directive
// comments) suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed[allowKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// IsTestFile reports whether pos sits in a _test.go file. The project
// invariants (determinism, lock discipline, allocation budgets) bind
// production code; tests may use ad-hoc randomness and wall clocks.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathWithin reports whether path is root or a package under root.
func PathWithin(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// PathWithinAny reports whether path sits in any of the given roots.
func PathWithinAny(path string, roots ...string) bool {
	for _, root := range roots {
		if PathWithin(path, root) {
			return true
		}
	}
	return false
}

// FuncOf resolves a call's callee to a package-level *types.Func (or a
// method), returning nil for calls through variables, conversions and
// builtins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Run executes each analyzer over one type-checked package and returns
// the combined findings sorted by position. //esharing:allow directives
// are honoured across all analyzers.
func Run(fset *token.FileSet, files []*ast.File, path string, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	allowed := collectAllows(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Path:     path,
			Pkg:      pkg,
			Info:     info,
			diags:    &diags,
			allowed:  allowed,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// collectAllows scans //esharing:allow directives. An allow names one
// or more analyzers followed by a mandatory justification after a "--"
// separator ("//esharing:allow floateq seededrand -- why it is safe")
// and covers the directive's own line plus the following line, so it
// works both as an end-of-line comment and as a standalone comment
// above the offending statement. The justification is not optional in
// practice: `esharing-lint -waivers` fails CI on any allow without one.
func collectAllows(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allowed := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//esharing:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Fields(rest) {
					if name == "--" {
						break // everything after is the justification
					}
					allowed[allowKey{pos.Filename, pos.Line, name}] = true
					allowed[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return allowed
}
