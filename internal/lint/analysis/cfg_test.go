package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// loadFunc parses and typechecks one source file and returns the named
// function's body CFG plus the type info, for the table-driven shape
// tests.
type loadedFunc struct {
	fset *token.FileSet
	info *types.Info
	fn   *ast.FuncDecl
	cfg  *CFG
}

func loadFunc(t *testing.T, src, name string) *loadedFunc {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("cfgtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return &loadedFunc{fset: fset, info: info, fn: fd, cfg: BuildCFG(fd.Body)}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// callNode finds the CFG block and node containing the call marker(...)
// (markers are no-op functions declared by the snippet).
func (l *loadedFunc) callNode(t *testing.T, marker string) (*Block, ast.Node) {
	t.Helper()
	for _, b := range l.cfg.Blocks {
		for _, n := range b.Nodes {
			found := false
			InspectNode(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == marker {
						found = true
					}
				}
				return !found
			})
			if found {
				return b, n
			}
		}
	}
	t.Fatalf("marker %s() not found in any CFG node", marker)
	return nil, nil
}

// localVar resolves a function-local variable by name.
func (l *loadedFunc) localVar(t *testing.T, name string) *types.Var {
	t.Helper()
	var v *types.Var
	ast.Inspect(l.fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if d, ok := l.info.Defs[id].(*types.Var); ok && v == nil {
			v = d
		}
		return true
	})
	if v == nil {
		t.Fatalf("local %s not found", name)
	}
	return v
}

const cfgShapesSrc = `package cfgtest

func mark(int)   {}
func mark2(int)  {}
func sink(func()) {}
func cond() bool { return false }
func fresh() int { return 0 }

func branchShape() {
	x := 1
	if cond() {
		x = 2
	} else {
		x = 3
	}
	mark(x)
}

func loopShape(n int) {
	x := 1
	for i := 0; i < n; i++ {
		mark(x)
		x = fresh()
	}
	mark2(x)
}

func earlyReturnShape() {
	x := 1
	if cond() {
		mark2(x)
		return
	}
	x = 2
	mark(x)
}

func deferShape() {
	x := 1
	defer mark(x)
	x = 2
	mark2(x)
}

func goroutineShape() {
	x := 1
	go func() {
		mark(x)
	}()
	x = 2
	mark2(x)
}

func switchShape(k int) {
	x := 1
	switch k {
	case 0:
		x = 2
		fallthrough
	case 1:
		mark(x)
	default:
		x = 3
	}
	mark2(x)
}

func labeledShape(n int) {
	x := 1
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if cond() {
				x = 2
				continue outer
			}
			if cond() {
				break outer
			}
		}
		mark(x)
	}
	mark2(x)
}
`

// defNodesReaching returns the assignments to local name that may reach
// the marker call: reaching definitions of one variable, solved with
// Forward over the CFG under test, so every shape test below checks the
// edges the flow-sensitive analyzers depend on.
func defNodesReaching(t *testing.T, l *loadedFunc, marker, name string) []ast.Node {
	t.Helper()
	v := l.localVar(t, name)
	transfer := func(n ast.Node, state FlowSet) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && (l.info.Defs[id] == v || l.info.Uses[id] == v) {
				clear(state) // a new definition of v kills every other one
				state.Add(n)
			}
		}
	}
	in := Forward(l.cfg, transfer)
	blk, node := l.callNode(t, marker)
	state := in[blk].Clone()
	for _, n := range blk.Nodes {
		if n == node {
			break
		}
		transfer(n, state)
	}
	var nodes []ast.Node
	for k := range state {
		nodes = append(nodes, k.(ast.Node))
	}
	return nodes
}

func TestCFGBranchShape(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "branchShape")
	// Both arm assignments reach the use after the join; the initial
	// x := 1 is killed on every path.
	defs := defNodesReaching(t, l, "mark", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching mark(x) after if/else = %d, want 2 (both arms)", len(defs))
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "loopShape")
	// First iteration sees x := 1; later iterations see the body's
	// x = fresh() via the back edge — both must reach the in-loop use.
	defs := defNodesReaching(t, l, "mark", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching in-loop mark(x) = %d, want 2 (init + back edge)", len(defs))
	}
	// The loop may run zero times, so both defs also reach the exit use.
	defs = defNodesReaching(t, l, "mark2", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching post-loop mark2(x) = %d, want 2", len(defs))
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "earlyReturnShape")
	// The return-arm use sees only the initial definition...
	defs := defNodesReaching(t, l, "mark2", "x")
	if len(defs) != 1 {
		t.Fatalf("defs reaching pre-return mark2(x) = %d, want 1", len(defs))
	}
	// ...and the fallthrough path's x = 2 kills it for the final use: the
	// returning path must not leak its state past the return.
	defs = defNodesReaching(t, l, "mark", "x")
	if len(defs) != 1 {
		t.Fatalf("defs reaching post-return mark(x) = %d, want 1 (x = 2 only)", len(defs))
	}
	if _, ok := defs[0].(*ast.AssignStmt); !ok {
		t.Fatalf("reaching def is %T, want the x = 2 assignment", defs[0])
	}
}

func TestCFGDeferIsANode(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "deferShape")
	// The defer statement must be an ordinary node (its arguments are
	// evaluated at the defer site)...
	var deferNode ast.Node
	for _, b := range l.cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				deferNode = n
			}
		}
	}
	if deferNode == nil {
		t.Fatal("defer statement does not appear as a CFG node")
	}
	// ...and control continues past it: the later x = 2 definition is
	// what reaches the trailing use.
	defs := defNodesReaching(t, l, "mark2", "x")
	if len(defs) != 1 {
		t.Fatalf("defs reaching mark2(x) after defer = %d, want 1", len(defs))
	}
}

func TestCFGGoroutineCapture(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "goroutineShape")
	// The go statement is a node, but the closure body's statements are
	// not part of the outer flow — no block may contain them.
	_, goNode := l.callNode(t, "mark")
	if _, ok := goNode.(*ast.GoStmt); !ok {
		t.Fatalf("node containing captured mark(x) is %T, want *ast.GoStmt (capture counts at creation)", goNode)
	}
	for _, b := range l.cfg.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
						t.Fatal("closure body statement leaked into the outer CFG")
					}
				}
			}
		}
	}
	// InspectNode sees the capture at the go statement: the conservative
	// reading every analysis in this package wants.
	captured := false
	InspectNode(goNode, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "x" {
			captured = true
		}
		return true
	})
	if !captured {
		t.Fatal("InspectNode(go stmt) did not reach the captured variable")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "switchShape")
	// case 0 assigns x = 2 and falls through into case 1's use, so the
	// use sees both the initial definition (direct case 1 entry) and the
	// fallthrough's x = 2.
	defs := defNodesReaching(t, l, "mark", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching mark(x) in fallthrough case = %d, want 2", len(defs))
	}
	// After the switch: x := 1 survives case 1's path, x = 2 the
	// fallthrough path, x = 3 the default.
	defs = defNodesReaching(t, l, "mark2", "x")
	if len(defs) != 3 {
		t.Fatalf("defs reaching post-switch mark2(x) = %d, want 3", len(defs))
	}
}

func TestCFGLabeledLoops(t *testing.T) {
	l := loadFunc(t, cfgShapesSrc, "labeledShape")
	// continue outer re-enters the outer loop: its x = 2 definition flows
	// to the next outer iteration's mark(x), joining the initial x := 1.
	defs := defNodesReaching(t, l, "mark", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching mark(x) under continue outer = %d, want 2", len(defs))
	}
	// break outer exits both loops; every definition except the shadowed
	// ones reaches the final use.
	defs = defNodesReaching(t, l, "mark2", "x")
	if len(defs) != 2 {
		t.Fatalf("defs reaching mark2(x) after break outer = %d, want 2", len(defs))
	}
}
