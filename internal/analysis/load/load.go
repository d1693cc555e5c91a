// Package load parses and type-checks Go packages for the esharing-lint
// suite using only the standard library. Files does the work for both
// callers: the vettool mode in cmd/esharing-lint passes it an importer
// over the compiler export data `go vet` hands over, and Dir, which
// backs the analysistest harness, passes a go/importer "source"
// importer that type-checks dependencies from source.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo allocates the types.Info maps the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Files parses filenames and type-checks them as package path using
// imp. Type errors are returned joined after best-effort checking so a
// caller can decide whether they are fatal.
func Files(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	pkg, _ := conf.Check(path, fset, files, info)
	out := &Package{Fset: fset, Path: path, Files: files, Types: pkg, Info: info}
	if len(typeErrs) > 0 {
		return out, fmt.Errorf("type-check %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	return out, nil
}

// Dir loads the single package rooted at dir under the given import
// path, type-checking dependencies from source. Test files are
// excluded: the analyzers exempt them anyway, and golden testdata
// packages never carry them.
func Dir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		filenames = append(filenames, filepath.Join(dir, name))
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	return Files(fset, path, filenames, importer.ForCompiler(fset, "source", nil))
}
