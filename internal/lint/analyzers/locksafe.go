package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pktclass/internal/lint/analysis"
)

// LockSafe enforces the lock discipline of the serving stack.
var LockSafe = &analysis.Analyzer{
	Name:        "locksafe",
	SuppressKey: "lock",
	Doc: `enforce lock discipline: no lock-holding copies, no engine calls under a lock, no deferred unlocks in loops

Three checks. (1) Values whose type transitively contains a sync lock or
a sync/atomic value must not be copied: by-value parameters, receivers
and results, pointer-dereference assignments, and range-value copies are
flagged (a wider net than vet's copylocks, which only sees Lock methods).
(2) Between a mu.Lock() and its mu.Unlock() — or for the rest of the
function after a defer mu.Unlock() — calls into classification
(Classify*, classify*, MultiMatch) are flagged: flowcache.Cache's batch
path probes under its lock, releases it for the engine's full lookup and
retakes it to insert, and a call back into an engine while the lock is
held is how self-deadlocks and tail-latency cliffs start. (3) defer
mu.Unlock() inside a loop is flagged: the unlock runs at function
return, not loop-iteration end. Suppress with //pclass:allow-lock.`,
	Run: runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkLockCopies(pass, fd.Recv, fd.Type)
			if fd.Body != nil {
				checkValueCopies(pass, fd.Body)
				checkDeferInLoop(pass, fd.Body, 0)
				checkHeldRegions(pass, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// --- check 1: copies of lock-bearing values ---

// checkLockCopies flags by-value receivers, parameters and results whose
// type contains a lock or atomic.
func checkLockCopies(pass *analysis.Pass, recv *ast.FieldList, ft *ast.FuncType) {
	lists := []*ast.FieldList{recv, ft.Params, ft.Results}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if name, ok := containsLock(t); ok {
				pass.Reportf(field.Type.Pos(), "passes %s by value; it contains %s", types.TypeString(t, types.RelativeTo(pass.Pkg)), name)
			}
		}
	}
}

// checkValueCopies flags assignments that copy a lock-bearing value out
// of existing storage (dereference or variable copy) and range statements
// whose value variable copies one per iteration.
func checkValueCopies(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				// Discarding into _ copies nothing.
				if len(x.Lhs) == len(x.Rhs) {
					if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				if copiesLockedValue(pass, rhs) {
					name, _ := containsLock(pass.TypesInfo.TypeOf(rhs))
					pass.Reportf(rhs.Pos(), "assignment copies a value containing %s", name)
				}
			}
		case *ast.RangeStmt:
			if x.Value != nil {
				if name, ok := containsLock(pass.TypesInfo.TypeOf(x.Value)); ok {
					pass.Reportf(x.Value.Pos(), "range value copies a value containing %s each iteration; range over indices or pointers instead", name)
				}
			}
		}
		return true
	})
}

// copiesLockedValue reports whether rhs reads an existing lock-bearing
// value by value. Composite literals and calls construct fresh values and
// are not copies of shared state.
func copiesLockedValue(pass *analysis.Pass, rhs ast.Expr) bool {
	switch ast.Unparen(rhs).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return false
	}
	_, ok := containsLock(pass.TypesInfo.TypeOf(rhs))
	return ok
}

// containsLock reports whether t (without following pointers, slices,
// maps or channels) contains a sync lock or sync/atomic value, naming the
// first one found.
func containsLock(t types.Type) (string, bool) {
	return findLock(t, make(map[types.Type]bool))
}

func findLock(t types.Type, seen map[types.Type]bool) (string, bool) {
	if t == nil || seen[t] {
		return "", false
	}
	seen[t] = true
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
					return "sync." + obj.Name(), true
				}
			case "sync/atomic":
				// Every sync/atomic type is copy-hostile.
				return "atomic." + obj.Name(), true
			}
		}
		return findLock(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name, ok := findLock(u.Field(i).Type(), seen); ok {
				return name, true
			}
		}
	case *types.Array:
		return findLock(u.Elem(), seen)
	}
	return "", false
}

// --- check 2: classification calls inside lock critical sections ---

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

// lockCall matches expr as a Lock/Unlock/RLock/RUnlock method call on a
// sync.Mutex or sync.RWMutex value, returning the printed receiver
// expression as the lock's identity.
func lockCall(pass *analysis.Pass, expr ast.Expr) (lock, method string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if name, isLock := containsLock(pass.TypesInfo.TypeOf(sel.X)); !isLock || !strings.HasPrefix(name, "sync.") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
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

// --- check 3: deferred unlocks inside loops ---

func checkDeferInLoop(pass *analysis.Pass, n ast.Node, loopDepth int) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.ForStmt:
			checkDeferInLoop(pass, x.Body, loopDepth+1)
			return false
		case *ast.RangeStmt:
			checkDeferInLoop(pass, x.Body, loopDepth+1)
			return false
		case *ast.FuncLit:
			// A new function scope resets the loop depth: defers in a
			// closure run at the closure's return.
			checkDeferInLoop(pass, x.Body, 0)
			return false
		case *ast.DeferStmt:
			if loopDepth > 0 {
				if lock, name, ok := lockCall(pass, x.Call); ok && (name == "Unlock" || name == "RUnlock") {
					pass.Reportf(x.Pos(), "defer %s.%s() inside a loop releases the lock at function return, not at iteration end", lock, name)
				}
			}
		}
		return true
	})
}
