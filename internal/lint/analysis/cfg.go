// Function-local control-flow graphs over go/ast.
//
// The flow-sensitive analyzers (poollifetime, atomicpin, cowwrite) need to
// reason about *order*: a scratch read after the releasing call, a second
// atomic load reachable from the first, a store through an alias taken
// earlier. A syntactic walk cannot see order across branches and loop back
// edges, so this file builds a small CFG — in the spirit of
// golang.org/x/tools/go/cfg, reimplemented on the standard library like the
// rest of the lint framework.
//
// The graph is deliberately approximate in the usual ways: panics and calls
// to runtime.Goexit fall through like ordinary statements, and a `select`
// with no default still gets a join block (every clause is assumed
// reachable). Those approximations only ever add edges, which for the
// may-analyses built on top means extra findings are possible in dead code,
// never missed findings on live paths.
package analysis

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: AST nodes that execute in sequence, followed by
// a transfer of control to one of Succs. Container statements (if/for/
// switch/select) never appear as nodes — only their leaf parts do (an if's
// Cond, a switch's Tag, the case expressions, simple statements). The one
// exception is *ast.RangeStmt, which stands for its own header (the ranged
// operand and the per-iteration key/value definition); walkers must not
// descend into its Body, which has its own blocks. InspectNode encapsulates
// that rule.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Blocks[0] is the
// entry; blocks left without successors end the function (return, or the
// fall-off-the-end exit). Deferred calls are not wired into the graph —
// they run at function exit, which has no block — so clients that care
// (poollifetime) treat *ast.DeferStmt nodes specially.
type CFG struct {
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*labelTarget)}
	b.cur = b.newBlock()
	b.stmt(body)
	return b.cfg
}

// InspectNode walks one CFG node the way ast.Inspect would, except that a
// *ast.RangeStmt node stands only for its header: the ranged operand and
// the key/value identifiers it defines, never the body (the body has its
// own blocks). Function literals ARE descended into: a capture inside a
// closure is treated as happening where the closure is built, which is the
// conservative reading for every analysis in this package.
func InspectNode(n ast.Node, f func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(r.X, f)
		if r.Key != nil {
			ast.Inspect(r.Key, f)
		}
		if r.Value != nil {
			ast.Inspect(r.Value, f)
		}
		return
	}
	ast.Inspect(n, f)
}

// loopTarget is the break/continue destination pair of one enclosing loop
// (or the break destination of a switch/select), possibly labeled.
type loopTarget struct {
	label    string
	breakBlk *Block
	contBlk  *Block // nil for switch/select
}

// labelTarget resolves goto and labeled break/continue. The block is
// created on first reference so forward gotos work.
type labelTarget struct {
	blk *Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	loops  []*loopTarget
	labels map[string]*labelTarget
	// pendingLabel names the label attached to the next loop/switch
	// statement, so `continue L` can find it.
	pendingLabel string
}

// newBlock appends a fresh block with edges from each pred.
func (b *cfgBuilder) newBlock(preds ...*Block) *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	for _, p := range preds {
		p.Succs = append(p.Succs, blk)
	}
	return blk
}

func (b *cfgBuilder) addNode(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// takeLabel consumes the pending label for the control statement that owns
// it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(t *loopTarget) { b.loops = append(b.loops, t) }
func (b *cfgBuilder) popLoop()               { b.loops = b.loops[:len(b.loops)-1] }

// findBreak locates the innermost (or labeled) break destination.
func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return b.loops[i].breakBlk
		}
	}
	return nil
}

// findContinue locates the innermost (or labeled) loop's continue
// destination, skipping switch/select frames.
func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].contBlk == nil {
			continue
		}
		if label == "" || b.loops[i].label == label {
			return b.loops[i].contBlk
		}
	}
	return nil
}

// detach parks the builder on a fresh block with no predecessors: the code
// that follows an unconditional transfer (return, break, goto) is
// unreachable until something jumps to it.
func (b *cfgBuilder) detach() { b.cur = b.newBlock() }

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.addNode(s.Cond)
		cond := b.cur
		b.cur = b.newBlock(cond)
		b.stmt(s.Body)
		thenEnd := b.cur
		if s.Else != nil {
			b.cur = b.newBlock(cond)
			b.stmt(s.Else)
			elseEnd := b.cur
			b.cur = b.newBlock(thenEnd, elseEnd)
		} else {
			b.cur = b.newBlock(cond, thenEnd)
		}

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock(b.cur)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			head.Succs = append(head.Succs, exit)
		}
		// continue runs Post (when present) before re-testing the
		// condition.
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			post.Succs = append(post.Succs, head)
		}
		b.pushLoop(&loopTarget{label: label, breakBlk: exit, contBlk: post})
		b.cur = b.newBlock(head)
		b.stmt(s.Body)
		b.cur.Succs = append(b.cur.Succs, post)
		b.popLoop()
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock(b.cur)
		head.Nodes = append(head.Nodes, s) // header only; see InspectNode
		exit := b.newBlock(head)
		b.pushLoop(&loopTarget{label: label, breakBlk: exit, contBlk: head})
		b.cur = b.newBlock(head)
		b.stmt(s.Body)
		b.cur.Succs = append(b.cur.Succs, head)
		b.popLoop()
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.addNode(s.Tag)
		}
		b.switchBody(label, s.Body, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchBody(label, s.Body, s.Assign)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		join := b.newBlock()
		b.pushLoop(&loopTarget{label: label, breakBlk: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			b.cur = b.newBlock(head)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.cur.Succs = append(b.cur.Succs, join)
		}
		b.popLoop()
		if len(s.Body.List) == 0 {
			// select{} blocks forever; keep join reachable anyway (an
			// extra edge, which may-analyses tolerate).
			head.Succs = append(head.Succs, join)
		}
		b.cur = join

	case *ast.LabeledStmt:
		t := b.label(s.Label.Name)
		b.cur.Succs = append(b.cur.Succs, t.blk)
		b.cur = t.blk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(label); t != nil {
				b.cur.Succs = append(b.cur.Succs, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(label); t != nil {
				b.cur.Succs = append(b.cur.Succs, t)
			}
		case token.GOTO:
			t := b.label(label)
			b.cur.Succs = append(b.cur.Succs, t.blk)
		case token.FALLTHROUGH:
			// Wired by switchBody, which knows the next case's block.
			return
		}
		b.detach()

	case *ast.ReturnStmt:
		b.addNode(s)
		b.detach()

	case nil:
		// no-op (empty else, absent init)

	default:
		// Simple statements — assignments, calls, sends, ++/--, defer, go,
		// declarations — are the nodes the analyses actually read.
		b.addNode(s)
	}
}

// switchBody builds the case blocks of a switch or type switch. assign,
// when non-nil, is the type switch's `x := y.(type)` header. A fallthrough
// at the end of a case body falls into the next case's block.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, assign ast.Stmt) {
	if assign != nil {
		b.addNode(assign)
	}
	head := b.cur
	join := b.newBlock()
	b.pushLoop(&loopTarget{label: label, breakBlk: join})

	// Create every case's block up front so fallthrough can target the
	// lexically next case.
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	blocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blocks = append(blocks, b.newBlock(head))
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.addNode(e)
		}
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(blocks) {
					b.cur.Succs = append(b.cur.Succs, blocks[i+1])
				}
				b.detach() // anything after fallthrough is unreachable
				continue
			}
			b.stmt(st)
		}
		b.cur.Succs = append(b.cur.Succs, join)
	}
	b.popLoop()
	b.cur = join
}

func (b *cfgBuilder) label(name string) *labelTarget {
	if t, ok := b.labels[name]; ok {
		return t
	}
	t := &labelTarget{blk: b.newBlock()}
	b.labels[name] = t
	return t
}
