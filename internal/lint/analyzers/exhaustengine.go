package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pktclass/internal/lint/analysis"
)

// ExhaustEngine enforces exhaustive switches over annotated enum types.
var ExhaustEngine = &analysis.Analyzer{
	Name:        "exhaustengine",
	SuppressKey: "exhaustive",
	Doc: `require exhaustive switches over //pclass:exhaustive enums

A switch over a //pclass:exhaustive constant enum type (ruleset.Profile,
ruleset.Kind, fpga.MemoryKind) must either cover every member — only
the exported members when switching outside the defining package — or
carry a default case that panics: silently handling an unknown member
as nothing is how a new one ships half-wired. Suppress with
//pclass:allow-exhaustive.`,
	Run: runExhaustEngine,
}

func runExhaustEngine(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if x, ok := n.(*ast.SwitchStmt); ok {
				checkEnumSwitch(pass, x)
			}
			return true
		})
	}
	return nil
}

func checkEnumSwitch(pass *analysis.Pass, st *ast.SwitchStmt) {
	if st.Tag == nil {
		return
	}
	named, ok := types.Unalias(pass.TypesInfo.TypeOf(st.Tag)).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return
	}
	members := pass.FactsFor(obj.Pkg()).EnumMembers(obj.Name())
	if members == nil {
		return
	}
	samePkg := obj.Pkg().Path() == pass.Pkg.Path()

	covered := make(map[string]bool)
	var defaultClause *ast.CaseClause
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, m := range members {
		if !samePkg && !m.Exported {
			continue
		}
		if !covered[m.Value] {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	enum := fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
	if defaultClause == nil {
		pass.Reportf(st.Pos(),
			"switch over //pclass:exhaustive enum %s misses %s and has no panicking default case",
			enum, strings.Join(missing, ", "))
		return
	}
	if !bodyPanics(pass, defaultClause.Body) {
		pass.Reportf(defaultClause.Pos(),
			"default case of a non-exhaustive switch over //pclass:exhaustive enum %s (missing %s) must panic",
			enum, strings.Join(missing, ", "))
	}
}

// bodyPanics reports whether a statement list contains a panic call
// (outside nested function literals).
func bodyPanics(pass *analysis.Pass, stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pass.TypesInfo, call.Fun, "panic") {
				found = true
			}
			return !found
		})
	}
	return found
}
