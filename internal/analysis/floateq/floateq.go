// Package floateq flags == and != between floating-point operands in
// the geometry and cost arithmetic packages (geo, core, incentive).
// Distances, costs and regrets there are sums of projected coordinates
// and square roots; exact equality on such values is almost always a
// latent bug that a tolerance comparison should replace. The rare
// comparisons that are exact by construction — sentinel zeros,
// tie-breaks on values copied from the same source — are waived
// explicitly with //esharing:allow floateq so the intent is on the
// record.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// scopedPkgs are the packages whose float arithmetic the check covers.
var scopedPkgs = []string{
	"repro/internal/geo",
	"repro/internal/core",
	"repro/internal/incentive",
}

// Analyzer is the floateq check.
var Analyzer = &lintkit.Analyzer{
	Name: "floateq",
	Doc: "forbid ==/!= on floating-point operands in geo, core and incentive; " +
		"use a tolerance, or waive exact-by-construction comparisons with //esharing:allow floateq",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	if !lintkit.PathWithinAny(pass.Path, scopedPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info, bin.X) || !isFloat(pass.Info, bin.Y) {
				return true
			}
			pass.Reportf(bin.OpPos,
				"floating-point %s comparison; use a tolerance or waive with //esharing:allow floateq",
				bin.Op)
			return true
		})
	}
	return nil
}

func isFloat(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
