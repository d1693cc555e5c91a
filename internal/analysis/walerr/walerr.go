// Package walerr audits error flow on the durability path. The WAL's
// contract (DESIGN.md §10) is that a decision is durable — or the
// server knows it is not — before the response is released: an append
// or snapshot failure must either propagate to the caller or latch the
// degradation flags (walFailed / walFailures) that flip /healthz. An
// error dropped on this path silently turns "durable" into "maybe".
//
// The analyzer targets error-returning durability calls — the wal.Log
// methods (AppendDecision, WriteSnapshot, Sync, Close),
// the server's shard wrappers (openWAL, closeWAL, writeWALSnapshot) and
// Server.Close, and inside internal/wal the raw file operations
// (Write, Sync, Truncate; Close is exempt as the error-path cleanup
// idiom) — and reports when a result is
//
//   - dropped: the call stands alone as a statement or is deferred,
//   - blanked: assigned to _,
//   - shadowed: the error variable is overwritten before any read, or
//   - ignored: the variable is never consulted afterwards.
//
// Append and snapshot calls additionally carry the latching contract:
// the enclosing function must hold the shard's decision lock (acquire
// it, or declare "caller holds decision") and must either propagate the
// error or reference the degradation flags after the call.
package walerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/lintkit"
)

// scope is the durability path: the WAL itself, the serving layer that
// drives it, and the binary that closes it on shutdown.
var scope = []string{
	"repro/internal/wal",
	"repro/internal/server",
	"repro/cmd/esharing-server",
}

// walPkg is the log implementation's import path; serverPkg is the
// serving layer that wraps it.
const (
	walPkg    = "repro/internal/wal"
	serverPkg = "repro/internal/server"
)

// Analyzer is the walerr check.
var Analyzer = &lintkit.Analyzer{
	Name: "walerr",
	Doc: "error results of WAL Append/Sync/snapshot calls on the durability path must not be " +
		"dropped, blanked, or shadowed, and append/snapshot failures must propagate or latch " +
		"degradation (walFailed) under the decision lock",
	Run: run,
}

// logMethods are the wal.Log methods whose errors carry durability.
var logMethods = map[string]bool{
	"AppendDecision": true,
	"WriteSnapshot":  true,
	"Sync":           true,
	"Close":          true,
}

// latchingMethods additionally require the decision lock and
// degradation latching (Sync/Close run on shutdown paths where the
// response-release contract does not apply).
var latchingMethods = map[string]bool{
	"AppendDecision": true,
	"WriteSnapshot":  true,
}

// shardWrappers are the serving layer's durability wrappers, matched as
// methods on the shard/Server types of the package under analysis.
var shardWrappers = map[string]bool{
	"openWAL":          true,
	"closeWAL":         true,
	"writeWALSnapshot": true,
}

// fileMethods are the raw *os.File operations checked inside
// internal/wal itself.
var fileMethods = map[string]bool{"Write": true, "Sync": true, "Truncate": true}

func run(pass *lintkit.Pass) error {
	if !lintkit.PathWithinAny(pass.Path, scope...) {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass *lintkit.Pass
}

// targetName classifies a call as a durability call, returning a
// display name ("wal.AppendDecision") or "".
func (c *checker) targetName(call *ast.CallExpr) string {
	fn := lintkit.FuncOf(c.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if !returnsError(sig) {
		return ""
	}
	recvName := namedRecv(sig)
	switch {
	case logMethods[fn.Name()] && recvName == "Log" &&
		(fn.Pkg().Path() == walPkg || fn.Pkg().Path() == c.pass.Path):
		return "wal." + fn.Name()
	case (shardWrappers[fn.Name()] && recvName == "shard" || fn.Name() == "Close" && recvName == "Server") &&
		(fn.Pkg().Path() == serverPkg || fn.Pkg().Path() == c.pass.Path):
		return recvName + "." + fn.Name()
	case fileMethods[fn.Name()] && recvName == "File" && fn.Pkg().Path() == "os" &&
		lintkit.PathWithin(c.pass.Path, walPkg):
		return "File." + fn.Name()
	}
	return ""
}

// latching reports whether the named target carries the latch-or-
// propagate contract.
func latching(name string) bool {
	short := name[strings.IndexByte(name, '.')+1:]
	return strings.HasPrefix(name, "wal.") && latchingMethods[short] || short == "writeWALSnapshot"
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}

// namedRecv returns the receiver's named-type name, "" if unresolvable.
func namedRecv(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkFunc audits every durability call inside one declared function
// (including its nested literals — error flow is positional within the
// whole declaration).
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := c.targetName(call)
		if name == "" {
			return true
		}
		c.checkCall(fd, call, name)
		return true
	})
}

// checkCall classifies how the call's error result is consumed.
func (c *checker) checkCall(fd *ast.FuncDecl, call *ast.CallExpr, name string) {
	path := pathTo(fd.Body, call)
	if path == nil {
		return
	}
	// Walk outward from the call to the statement that contains it.
	var parent ast.Node
	for i := len(path) - 2; i >= 0; i-- {
		if _, ok := path[i].(ast.Stmt); ok {
			parent = path[i]
			break
		}
		if _, ok := path[i].(ast.Expr); ok && path[i] != call {
			// The call is a subexpression (condition, argument, return
			// value): its result is consumed where it stands.
			parent = path[i]
			break
		}
	}
	switch p := parent.(type) {
	case *ast.ExprStmt:
		c.pass.Reportf(call.Pos(), "error from %s is dropped; a durability failure must propagate or latch degradation", name)
		return
	case *ast.DeferStmt:
		c.pass.Reportf(call.Pos(), "deferred %s discards its error; call it explicitly and consume the result", name)
		return
	case *ast.GoStmt:
		c.pass.Reportf(call.Pos(), "error from %s is discarded by go; durability calls must run synchronously on the request path", name)
		return
	case *ast.AssignStmt:
		errObj, blank := errAssigned(c.pass.Info, p, call)
		if blank {
			c.pass.Reportf(call.Pos(), "error from %s is assigned to _; a durability failure must propagate or latch degradation", name)
			return
		}
		if errObj != nil {
			c.checkErrFlow(fd, call, p, errObj, name)
		}
	case *ast.ReturnStmt:
		// Propagated directly.
	default:
		// Consumed as a subexpression (if l.Sync() != nil, fmt.Errorf
		// wrapping, …).
	}
	if latching(name) {
		c.checkLatch(fd, call, name)
	}
}

// errAssigned finds the object the call's error result lands in: the
// last assignee when the call is the sole right-hand side. blank is
// true when that position is _.
func errAssigned(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) (types.Object, bool) {
	if len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != ast.Node(call) || len(as.Lhs) == 0 {
		return nil, false
	}
	last := ast.Unparen(as.Lhs[len(as.Lhs)-1])
	id, ok := last.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if id.Name == "_" {
		return nil, true
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	return obj, false
}

// checkErrFlow verifies the assigned error variable is read before
// being overwritten, anywhere later in the function. The ordering is
// positional — a sound approximation for the straight-line durability
// wrappers this analyzer audits.
func (c *checker) checkErrFlow(fd *ast.FuncDecl, call *ast.CallExpr, assign *ast.AssignStmt, obj types.Object, name string) {
	var firstUse, firstOverwrite token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() <= assign.Pos() || n.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || c.objOf(id) != obj {
					continue
				}
				// x = f(x) reads before it writes.
				if usesObj(c.pass.Info, n.Rhs, obj) {
					continue
				}
				if firstOverwrite == token.NoPos || n.Pos() < firstOverwrite {
					firstOverwrite = n.Pos()
				}
				// The LHS identifier is not a read; skip the subtree.
				return false
			}
		case *ast.Ident:
			if n.Pos() <= assign.End() || c.objOf(n) != obj {
				return true
			}
			if !isWriteTarget(fd.Body, n) {
				if firstUse == token.NoPos || n.Pos() < firstUse {
					firstUse = n.Pos()
				}
			}
		}
		return true
	})
	switch {
	case firstUse == token.NoPos:
		c.pass.Reportf(call.Pos(), "error from %s is assigned but never consulted; a durability failure must propagate or latch degradation", name)
	case firstOverwrite != token.NoPos && firstOverwrite < firstUse:
		c.pass.Reportf(call.Pos(), "error from %s is overwritten before it is checked (shadowed at %s)",
			name, c.pass.Fset.Position(firstOverwrite))
	}
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.Info.Defs[id]
}

// isWriteTarget reports whether id is the left-hand side of a plain
// assignment (a write, not a read).
func isWriteTarget(body *ast.BlockStmt, id *ast.Ident) bool {
	path := pathTo(body, id)
	for i := len(path) - 2; i >= 0; i-- {
		as, ok := path[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if ast.Unparen(lhs) == ast.Node(id) {
				return as.Tok == token.ASSIGN || as.Tok == token.DEFINE
			}
		}
		return false
	}
	return false
}

// checkLatch enforces the latch-or-propagate contract for append and
// snapshot calls: the enclosing function must operate under the
// decision lock, and the failure must reach a return statement or the
// degradation flags after the call.
func (c *checker) checkLatch(fd *ast.FuncDecl, call *ast.CallExpr, name string) {
	// Only the serving layer has the decision lock and the degradation
	// flags; inside internal/wal the methods are the implementation.
	if lintkit.PathWithin(c.pass.Path, walPkg) {
		return
	}
	if !underDecisionLock(c.pass, fd) {
		c.pass.Reportf(call.Pos(),
			"%s must run under the decision lock (acquire it or document \"caller holds decision\") so the failure latches before the response releases", name)
	}
	if !propagatesOrLatches(c.pass, fd, call) {
		c.pass.Reportf(call.Pos(),
			"failure of %s is neither returned nor latched into walFailed/walFailures after the call", name)
	}
}

// underDecisionLock reports whether fd acquires the decision channel
// itself or documents that its caller holds it.
func underDecisionLock(pass *lintkit.Pass, fd *ast.FuncDecl) bool {
	for _, name := range lintkit.CallerHolds(fd.Doc) {
		if name == "decision" {
			return true
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			if sel, ok := ast.Unparen(send.Chan).(*ast.SelectorExpr); ok && sel.Sel.Name == "decision" {
				found = true
			}
			if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok && id.Name == "decision" {
				found = true
			}
		}
		return !found
	})
	return found
}

// propagatesOrLatches reports whether, after the call, the function
// either returns the error (directly or via the assigned variable) or
// touches the degradation flags.
func propagatesOrLatches(pass *lintkit.Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	// Direct propagation: the call sits in a return statement.
	path := pathTo(fd.Body, call)
	for i := len(path) - 2; i >= 0; i-- {
		if _, ok := path[i].(*ast.ReturnStmt); ok {
			return true
		}
		if _, ok := path[i].(ast.Stmt); ok {
			break
		}
	}
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Pos() > call.Pos() && (n.Sel.Name == "walFailed" || n.Sel.Name == "walFailures") {
				ok = true
			}
		case *ast.ReturnStmt:
			if n.Pos() > call.Pos() {
				// Any later return whose results mention an error-typed
				// identifier counts as propagation.
				for _, r := range n.Results {
					if isErrorExpr(pass.Info, r) {
						ok = true
					}
				}
			}
		}
		return !ok
	})
	return ok
}

// isErrorExpr reports whether e has static type error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// usesObj reports whether obj appears in any of the expressions.
func usesObj(info *types.Info, es []ast.Expr, obj types.Object) bool {
	for _, e := range es {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// pathTo returns the enclosing-node chain from root down to target,
// inclusive, or nil when target is not under root.
func pathTo(root ast.Node, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			path = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return path
}
