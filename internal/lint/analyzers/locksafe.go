package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pktclass/internal/lint/analysis"
)

// LockSafe keeps classification out of lock critical sections.
var LockSafe = &analysis.Analyzer{
	Name:        "locksafe",
	SuppressKey: "lock",
	Doc: `no classification call while a sync lock is held

Between a mu.Lock() and its mu.Unlock() — or for the rest of the
function after a defer mu.Unlock() — calls into classification
(Classify*, classify*, MultiMatch) are flagged: flowcache.Cache's batch
path probes under its lock, releases it for the engine's full lookup and
retakes it to insert, and a call back into an engine while the lock is
held is how self-deadlocks and tail-latency cliffs start. (Copies of
lock-bearing values are go vet's copylocks check.) Suppress with
//pclass:allow-lock.`,
	Run: runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		checkHeldRegions(pass, fd.Body.List, map[string]bool{})
	})
	return nil
}

// checkHeldRegions walks a statement list tracking which mutex
// expressions are held, recursing into nested control flow with a copy of
// the held set.
func checkHeldRegions(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if lock, name, ok := lockCall(pass, s.X); ok {
				switch name {
				case "Lock", "RLock":
					held[lock] = true
				case "Unlock", "RUnlock":
					delete(held, lock)
				}
				continue
			}
		case *ast.DeferStmt:
			if lock, name, ok := lockCall(pass, s.Call); ok && (name == "Unlock" || name == "RUnlock") {
				// Held until function return; treat the rest of this
				// statement list as a critical section.
				held[lock] = true
				continue
			}
		}
		if len(held) > 0 {
			reportClassifyCalls(pass, stmt, held)
		}
		// Recurse into nested blocks with an independent copy: a lock taken
		// inside a branch does not stay held after it.
		for _, body := range nestedStmtLists(stmt) {
			checkHeldRegions(pass, body, copyHeld(held))
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// nestedStmtLists returns the statement lists nested directly inside one
// statement (if/else bodies, loop bodies, switch clauses, select comms).
func nestedStmtLists(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, []ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{s.Stmt})
	}
	return out
}

// lockCall matches expr as a Lock/Unlock/RLock/RUnlock method call of
// package sync (a Mutex, RWMutex or Locker), returning the printed
// receiver expression as the lock's identity.
func lockCall(pass *analysis.Pass, expr ast.Expr) (lock, method string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := calleeFunc(pass.TypesInfo, call)
	if !isSel || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// reportClassifyCalls flags classification calls anywhere inside stmt,
// without descending into function literals (they run later, not under
// the lock) or nested statement lists (handled by the caller's recursion
// with the correct held set).
func reportClassifyCalls(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		case *ast.CallExpr:
			if name, ok := calleeName(x); ok && isClassifyName(name) {
				for lock := range held {
					pass.Reportf(x.Pos(), "calls %s while holding lock %s; classification must run outside lock critical sections", name, lock)
					break
				}
			}
		}
		return true
	})
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name, true
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	}
	return "", false
}

// isClassifyName matches the classification entry points the lock
// discipline protects: Classify, ClassifyBatch(...), classifyMisses-style
// helpers, and MultiMatch.
func isClassifyName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "classify") || name == "MultiMatch"
}
