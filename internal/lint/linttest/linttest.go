// Package linttest runs pclasslint analyzers over fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest: fixture
// sources under testdata/src/<path> annotate expected findings with
// "// want `regexp`" comments, and the harness fails the test on any
// missing or unexpected diagnostic.
//
// Fixture packages may import each other (testdata/src/<path> is the
// import root, so a file in testdata/src/immut/use imports "immut/def")
// and the standard library (resolved by the source importer, since the
// fixtures are compiled from source, never installed).
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// Run analyzes the fixture packages named by their import paths under
// testdata/src and checks diagnostics against // want annotations.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: make(map[string]*fixture),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, path := range pkgPaths {
		fx, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		runOne(t, a, l, fx)
	}
}

// fixture is one loaded fixture package.
type fixture struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	facts *facts.Package
}

// loader resolves fixture imports from the testdata tree and everything
// else from the standard library's source importer.
type loader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*fixture
}

// Import implements types.Importer over the fixture tree.
func (l *loader) Import(path string) (*types.Package, error) {
	if fx, err := l.load(path); err == nil && fx != nil {
		return fx.pkg, nil
	} else if err != nil {
		return nil, err
	}
	return l.std.Import(path)
}

// load parses and typechecks one fixture package, returning (nil, nil)
// when path is not under the fixture root.
func (l *loader) load(path string) (*fixture, error) {
	if fx, ok := l.pkgs[path]; ok {
		return fx, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s has no Go files", path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		path:  path,
		files: files,
		pkg:   pkg,
		info:  info,
		facts: facts.Scan(files, info),
	}
	l.pkgs[path] = fx
	return fx, nil
}

// runOne executes the analyzer over one fixture and diffs diagnostics
// against the fixture's want annotations.
func runOne(t *testing.T, a *analysis.Analyzer, l *loader, fx *fixture) {
	t.Helper()
	var diags []analysis.Diagnostic
	sup := analysis.BuildSuppressions(l.fset, fx.files)
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     fx.files,
		Pkg:       fx.pkg,
		TypesInfo: fx.info,
		Facts:     fx.facts,
		DepFacts: func(path string) *facts.Package {
			if dep, ok := l.pkgs[path]; ok {
				return dep.facts
			}
			return nil
		},
		Report: func(d analysis.Diagnostic) {
			if !sup.Suppressed(l.fset.Position(d.Pos), a.SuppressKey) {
				diags = append(diags, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, fx.path, err)
	}

	wants := collectWants(t, l.fset, fx.files)
	// Match every diagnostic against an unconsumed want on its line.
	for _, d := range diags {
		pos := l.fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// wantRE extracts the quoted expectation patterns from a comment:
// double-quoted or backquoted Go strings after the word "want".
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses // want annotations from every fixture file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	out := make(map[lineKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(rest, -1) {
					expr := q[1 : len(q)-1]
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, q, err)
					}
					key := lineKey{pos.Filename, pos.Line}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}
