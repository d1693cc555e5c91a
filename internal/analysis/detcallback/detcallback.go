// Package detcallback enforces purity of the closures handed to the
// deterministic fork-join engine. A callback passed to
// parallel.For/ForChunks/Map/MapReduce/MinIndex executes on an
// arbitrary worker in an arbitrary interleaving; the engine's
// bit-identical-at-any-worker-count guarantee (DESIGN.md §9) holds only
// if the callback is a pure function of its index and captured inputs.
// This analyzer therefore requires callbacks to be transitively free of
//
//   - wall-clock reads (time.Now/Since/Until),
//   - draws from the shared global math/rand source (worker-seeded
//     streams via *rand.Rand methods are fine), and
//   - map iterations whose order escapes (lintkit.MapRangeEscapes),
//
// where "transitively" follows the intra-package call graph: helpers,
// helpers-of-helpers, closure variables and method values are all
// traversed, and the diagnostic names the call chain that reaches the
// impurity.
//
// Functions marked with a //esharing:deterministic directive in their
// doc comment are held to the same contract — the server's shard
// decision path uses this to get engine-grade checking outside the
// parallel package.
package detcallback

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/lintkit"
)

// parallelPkg is the deterministic fork-join engine's import path.
const parallelPkg = "repro/internal/parallel"

// entryPoints are the engine functions that run caller closures on
// worker goroutines.
var entryPoints = map[string]bool{
	"For":       true,
	"ForChunks": true,
	"Map":       true,
	"MapReduce": true,
	"MinIndex":  true,
}

// clockFuncs are the time functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Analyzer is the detcallback check.
var Analyzer = &lintkit.Analyzer{
	Name: "detcallback",
	Doc: "closures passed to parallel.For/Map/MapReduce/MinIndex (and functions marked " +
		"//esharing:deterministic) must be transitively free of wall-clock reads, global " +
		"math/rand draws, and order-escaping map iterations",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	g := lintkit.NewGraph(pass)
	reach := g.Reach(func(n *lintkit.FuncNode) []lintkit.Fact {
		return impurities(pass, n)
	})
	// One report per impurity site: a helper shared by several callbacks
	// is one finding, not one per caller.
	type site struct {
		pos token.Pos
		msg string
	}
	seen := map[site]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		s := site{pos, fmt.Sprintf(format, args...)}
		if seen[s] {
			return
		}
		seen[s] = true
		pass.Reportf(pos, "%s", s.msg)
	}

	// Closures handed to the parallel engine.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintkit.FuncOf(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPkg || !entryPoints[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				t := pass.Info.TypeOf(arg)
				if t == nil {
					continue
				}
				if _, ok := t.Underlying().(*types.Signature); !ok {
					continue
				}
				for _, node := range g.NodesFor(arg) {
					for _, rf := range reach(node) {
						report(rf.Pos, "parallel.%s callback must be deterministic: %s%s",
							fn.Name(), rf.Message, lintkit.ViaString(rf.Via))
					}
				}
			}
			return true
		})
	}

	// Functions that declare the contract explicitly.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !lintkit.HasDirective(fd.Doc, "esharing:deterministic") {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if node := g.NodeFor(fn); node != nil {
				for _, rf := range reach(node) {
					report(rf.Pos, "%s is marked //esharing:deterministic: %s%s",
						node.Describe(), rf.Message, lintkit.ViaString(rf.Via))
				}
			}
		}
	}
	return nil
}

// impurities collects a single node's local determinism violations:
// wall-clock reads, global rand draws, and order-escaping map ranges.
// Nested literals are excluded — they are their own nodes, reached
// through contains-edges.
func impurities(pass *lintkit.Pass, n *lintkit.FuncNode) []lintkit.Fact {
	if n.Body == nil {
		return nil
	}
	var facts []lintkit.Fact
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintkit.FuncOf(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if clockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
				facts = append(facts, lintkit.Fact{
					Pos:     call.Pos(),
					Message: "reads the wall clock (time." + fn.Name() + ")",
				})
			}
		case "math/rand", "math/rand/v2":
			// Package-level functions draw from the shared global
			// source; methods on a *rand.Rand stream and the New*
			// constructors are deterministic under seeding discipline.
			if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
				facts = append(facts, lintkit.Fact{
					Pos:     call.Pos(),
					Message: "draws from the shared global math/rand source (rand." + fn.Name() + ")",
				})
			}
		}
		return true
	})
	for _, rs := range lintkit.RangeStmtsOf(n) {
		for _, esc := range lintkit.MapRangeEscapes(pass.Info, rs, n.Body, nil) {
			facts = append(facts, lintkit.Fact{
				Pos:     esc.Pos,
				Message: "lets map iteration order escape (" + esc.What + ")",
			})
		}
	}
	return facts
}
