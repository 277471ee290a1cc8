package pktclass

// The reachability gate: internal code that no program can reach does not
// stay. Nothing outside this module may import internal/, so an exported
// name under internal/ that no non-test file of this module or of
// benchmark/ references can be reached only by its own tests.
//
// The check is syntax-only (go/parser, no type checking, no subprocess).
// It walks the non-test .go files of both modules, testdata/ excluded, and
// fails, naming the declaration, when
//   - an exported package-level func, type, var or const under internal/
//     is referenced by no non-test file outside its own declaration, or
//   - an unexported package-level func (main and init aside) is
//     referenced by no non-test file of its own package outside its own
//     body.
//
// A reference is an identifier that is not itself a declaration: a bare
// name inside the declaring package, or pkg.Name where pkg is an import of
// the declaring package. A method's receiver type is not a reference to
// that type, so a type that only its own methods mention still fails.
// Methods and struct fields are out of the scan's scope: they are reached
// through values, which a syntax-only scan cannot follow. A local that
// shadows a package-level name counts as a reference to it; that errs
// towards keeping code, never towards failing the gate.
//
// keepUnreached lists what stays without a non-test caller, one reason
// each. A func, type, var or const entry that the scan no longer needs
// fails the gate, and so does a method entry whose method is gone, so the
// list cannot outlive what it excuses.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepUnreached maps "<dir>.<Name>" (or "<dir>.<Type>.<Method>") to why it
// stays although no non-test file calls it.
var keepUnreached = map[string]string{
	// Test oracles: the references other code is checked against.
	"internal/core.ClassifyBatch":               "test oracle: the allocating batch form every engine's batch path is checked against",
	"internal/flowcache.Hash":                   "test oracle: the reference the cache's inlined bucket hash is checked against",
	"internal/ruleset.ParseTernary":             "fuzz target: FuzzParseTernary pins the text form Ternary.String writes",
	"internal/ruleset.Expanded.FirstMatch":      "test oracle: first match over expanded entries, the reference for entry-level engines",
	"internal/ruleset.Ternary.Matches":          "test oracle: header-level ternary match beside MatchesKey",
	"internal/oftuple.Rule.Matches":             "test oracle: the OpenFlow 12-tuple reference the oftuple engine is checked against",
	"internal/lint/linttest.Run":                "test harness: the fixture runner every analyzer test imports",
	"internal/sim.RunStrideBVPipeline":          "paper model: the StrideBV pipeline of the paper's RTL, cycle by cycle (DESIGN.md)",
	"internal/sim.RunTCAM":                      "paper model: the SRL16E TCAM of the paper's RTL, cycle by cycle (DESIGN.md)",
	"internal/stridebv.NewModular":              "paper model: Ext-Mod, StrideBV split into modules of m entries (DESIGN.md)",
	"internal/serve.Service.Reload":             "open API: ROADMAP item 11's oracle drives Reload",
	"internal/serve.Service.Generation":         "open API: ROADMAP item 11's committed-version window reads Generation",
	"internal/serve.Service.Registry":           "open API: ROADMAP item 11 reads the service's instruments",
	"internal/obsv.EventKind.MarshalJSON":       "called by encoding/json through json.Marshaler",
	"internal/obsv.EventKind.UnmarshalJSON":     "called by encoding/json through json.Unmarshaler",
	"internal/lint/unit.versionFlag.IsBoolFlag": "called by package flag: -V takes no value",
	"internal/lint/unit.versionFlag.Get":        "called by package flag through flag.Getter",
	"internal/lint/unit.versionFlag.String":     "called by package flag through flag.Value",
	"internal/lint/unit.versionFlag.Set":        "called by package flag through flag.Value",
}

// moduleRoots maps each module's import path prefix to its directory,
// relative to this file. benchmark/ imports pktclass through a replace to
// "../", so both modules resolve into the same tree.
var moduleRoots = []struct{ importPath, dir string }{
	{"pktclass/benchmark", "benchmark"},
	{"pktclass", "."},
}

type reachDecl struct {
	dir, name string
	fn        bool // a package-level func, not a type, var or const
	pos       token.Position
	// file, lo and hi bound the declaration: a reference inside it
	// (recursion, a type naming itself) does not count.
	file   string
	lo, hi token.Pos
}

type reachFile struct {
	dir, path string
	f         *ast.File
}

func TestEveryInternalNameIsReached(t *testing.T) {
	fset := token.NewFileSet()
	var files []reachFile
	pkgName := map[string]string{} // dir -> package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgName[dir] = f.Name.Name
		files = append(files, reachFile{dir: dir, path: p, f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []reachDecl
	methods := map[string]bool{} // "<dir>.<Type>.<Method>"
	for _, rf := range files {
		add := func(id *ast.Ident, n ast.Node, fn bool) {
			decls = append(decls, reachDecl{dir: rf.dir, name: id.Name, fn: fn, pos: fset.Position(id.Pos()),
				file: rf.path, lo: n.Pos(), hi: n.End()})
		}
		for _, d := range rf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d, true)
				} else {
					methods[rf.dir+"."+receiverType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, false)
						}
					}
				}
			}
		}
	}

	type ref struct {
		file string
		pos  token.Pos
	}
	refs := map[string][]ref{} // "<dir>.<Name>" -> every reference
	for _, rf := range files {
		imports := map[string]string{} // local name -> dir
		for _, is := range rf.f.Imports {
			ip := strings.Trim(is.Path.Value, `"`)
			for _, m := range moduleRoots {
				if ip == m.importPath || strings.HasPrefix(ip, m.importPath+"/") {
					dir := path.Join(m.dir, strings.TrimPrefix(ip, m.importPath))
					local := pkgName[dir]
					if is.Name != nil {
						local = is.Name.Name
					}
					imports[local] = dir
					break
				}
			}
		}
		declaring := map[*ast.Ident]bool{}
		ast.Inspect(rf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declaring[n.Name] = true
			case *ast.TypeSpec:
				declaring[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			}
			return true
		})
		note := func(key string, pos token.Pos) { refs[key] = append(refs[key], ref{rf.path, pos}) }
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The receiver is where a method attaches, not a use of
				// its type.
				ast.Inspect(n.Type, walk)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						note(dir+"."+n.Sel.Name, n.Sel.Pos())
						return false
					}
				}
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				if !declaring[n] {
					note(rf.dir+"."+n.Name, n.Pos())
				}
			}
			return true
		}
		for _, d := range rf.f.Decls {
			ast.Inspect(d, walk)
		}
	}

	var failures []string
	excused := map[string]bool{}
	for _, d := range decls {
		exported := ast.IsExported(d.name)
		switch {
		case exported && !strings.HasPrefix(d.dir, "internal/"):
			continue
		case !exported && (!d.fn || d.name == "main" || d.name == "init" || d.name == "_"):
			continue
		}
		key := d.dir + "." + d.name
		reached := false
		for _, r := range refs[key] {
			if r.file != d.file || r.pos < d.lo || r.pos >= d.hi {
				reached = true
				break
			}
		}
		if reached {
			continue
		}
		if _, ok := keepUnreached[key]; ok {
			excused[key] = true
			continue
		}
		what := "exported name under internal/ that no non-test file references"
		if !exported {
			what = "unexported func that no non-test file of its package references"
		}
		failures = append(failures, d.pos.String()+": "+key+": "+what)
	}
	for key := range keepUnreached {
		if !excused[key] && !methods[key] {
			failures = append(failures, "keepUnreached entry "+key+" excuses nothing: it is gone, or a non-test file references it")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// receiverType names a method's receiver type: T for T, *T, T[P] and *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
