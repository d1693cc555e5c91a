// Command esharing-lint runs the project's static-analysis suite: the
// seededrand, nowalltime, guardedby, floateq, hotpathalloc, mapiter,
// detcallback, chanlock and walerr analyzers that machine-check the
// repository's determinism, lock-discipline, durability and hot-path
// invariants (see DESIGN.md, "Static analysis & invariants" and
// "Determinism analysis").
//
// It runs two ways:
//
//	go vet -vettool=$(which esharing-lint) ./... # as a vet tool
//	esharing-lint -waivers [root]                # audit the //esharing:allow budget
//
// The vettool mode speaks cmd/go's unit-checking protocol (the same one
// golang.org/x/tools/go/analysis/unitchecker implements): it answers
// -flags with a JSON flag description, then receives one *.cfg file per
// package, test variants included, describing sources and pre-built
// export data for every dependency. It exits 0 when the tree is clean
// and non-zero with file:line:col diagnostics otherwise.
package main

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis/lintkit"
	"repro/internal/analysis/load"
	"repro/internal/analysis/registry"
)

const version = "esharing-lint version v1.0.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The cmd/go vettool handshake: -V=full identifies the tool for
	// build caching; -flags describes supported analyzer flags (none).
	for _, arg := range args {
		switch arg {
		case "-V=full", "-V":
			fmt.Println(version)
			return 0
		case "-flags":
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) > 0 && args[0] == "-waivers" {
		return runWaivers(args[1:])
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitCheck(args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which esharing-lint) [packages]\n       esharing-lint -waivers [root]")
	return 2
}

// vetConfig mirrors cmd/go's per-package vet configuration (the fields
// this tool consumes; unknown fields are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitCheck analyzes one package unit handed over by `go vet`.
func unitCheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esharing-lint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "esharing-lint: parse %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires a vetx (facts) output file regardless of
	// findings; this suite exchanges no cross-package facts, so the
	// file is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "esharing-lint: write vetx: %v\n", err)
			return 1
		}
	}
	if len(cfg.GoFiles) == 0 {
		return 0
	}

	// Type-check against the export data go vet already built for every
	// dependency, exactly as unitchecker does.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, cfg.Compiler, func(importPath string) (io.ReadCloser, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			if cfg.Compiler == "gccgo" && cfg.Standard[path] {
				return nil, nil // fall back to the default gccgo lookup
			}
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := load.Files(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The build will report the compile error itself (#18395).
			return 0
		}
		fmt.Fprintf(os.Stderr, "esharing-lint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}
	return report(analyze(pkg))
}

func analyze(pkg *load.Package) ([]lintkit.Diagnostic, *token.FileSet) {
	diags, err := lintkit.Run(pkg.Fset, pkg.Files, pkg.Path, pkg.Types, pkg.Info, registry.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "esharing-lint: %v\n", err)
		os.Exit(1)
	}
	return diags, pkg.Fset
}

func report(diags []lintkit.Diagnostic, fset *token.FileSet) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}
