// Package unit implements the go vet -vettool driver protocol (the
// "unitchecker" protocol of golang.org/x/tools, reimplemented on the
// standard library so the repository stays dependency-free).
//
// The go command invokes the vettool three ways:
//
//   - pclasslint -V=full        → print a version line hashing the binary,
//     used as the tool's build-cache identity
//   - pclasslint -flags         → print the tool's analyzer flags as JSON
//     (the go command forwards only flags named here, which is how
//     "go vet -vettool=… -json" reaches the tool)
//   - pclasslint <unit>.cfg     → analyze one compilation unit described
//     by the JSON config: parse its Go files, typecheck against the
//     export data of its dependencies, run the analyzers, exchange facts
//     through .vetx files, and print findings to stderr (non-zero exit)
//     or — under -json — as a machine-readable tree on stdout (exit 0;
//     the diagnostics are the output, not an error)
//
// Units outside the module under lint (the standard library and any
// other dependency go vet walks for facts) are skipped with empty facts:
// pclasslint's invariants are this repository's conventions.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// config is the JSON compilation-unit description the go command writes
// for each vet action (unexported fields of the x/tools unitchecker
// Config it mirrors are omitted; unknown JSON fields are ignored).
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the vettool entry point. modulePath scopes analysis: units
// whose import path is outside the module produce empty facts and no
// findings.
func Main(modulePath string, analyzers []*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("pclasslint: ")
	flag.Var(versionFlag{}, "V", "print version and exit")
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON and exit")
	jsonMode := flag.Bool("json", false, "emit diagnostics as JSON on stdout, keyed by package then analyzer")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which pclasslint) [package]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, doc)
		}
		os.Exit(2)
	}
	flag.Parse()
	if *printFlags {
		// The go command forwards a "go vet" flag to the tool only if this
		// list names it; -json is the one tool flag pclasslint accepts.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		data, err := json.MarshalIndent([]jsonFlag{
			{Name: "json", Bool: true, Usage: "emit diagnostics as JSON on stdout, keyed by package then analyzer"},
		}, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
	}
	res, err := run(args[0], modulePath, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonMode {
		fmt.Println(string(res.JSON()))
		return // diagnostics are the output, not an error: exit 0
	}
	if len(res.findings) > 0 {
		for _, f := range res.findings {
			fmt.Fprintf(os.Stderr, "%s: %s\n", res.fset.Position(f.diag.Pos), f.diag.Message)
		}
		os.Exit(2)
	}
}

// finding is one diagnostic tagged with the analyzer that produced it
// (plain output drops the tag; -json keys on it).
type finding struct {
	analyzer string
	diag     analysis.Diagnostic
}

// unitResult is everything Main needs to render one unit's findings in
// either output mode.
type unitResult struct {
	importPath string
	fset       *token.FileSet
	findings   []finding
}

// jsonDiagnostic is the wire form of one finding under -json, matching
// the x/tools unitchecker schema (posn is "file:line:col") so existing
// consumers — editors, the CI problem matcher's JSON cousin — can parse
// pclasslint output without a special case.
type jsonDiagnostic struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// JSON renders the unit's findings as the unitchecker JSON tree:
//
//	{"import/path": {"analyzer": [{"posn": "file:line:col", "message": …}]}}
//
// A clean unit renders as {} — still valid JSON, so stream consumers
// need no empty-output special case.
func (r *unitResult) JSON() []byte {
	tree := make(map[string]map[string][]jsonDiagnostic)
	for _, f := range r.findings {
		byAnalyzer := tree[r.importPath]
		if byAnalyzer == nil {
			byAnalyzer = make(map[string][]jsonDiagnostic)
			tree[r.importPath] = byAnalyzer
		}
		byAnalyzer[f.analyzer] = append(byAnalyzer[f.analyzer], jsonDiagnostic{
			Posn:    r.fset.Position(f.diag.Pos).String(),
			Message: f.diag.Message,
		})
	}
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		log.Fatal(err) // diagnostics are plain strings; cannot fail
	}
	return data
}

// versionFlag handles -V=full exactly like x/tools' unitchecker: the go
// command parses the "<name> version <vers>" line and folds the binary
// hash into its action cache key.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() interface{} { return nil }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s", s)
	}
	// This replicates the minimal subset of cmd/internal/objabi's
	// AddVersionFlag the go command requires of a vet tool.
	progname := os.Args[0]
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)[:12]))
	os.Exit(0)
	return nil
}

// run analyzes one compilation unit and returns its findings.
func run(cfgFile, modulePath string, analyzers []*analysis.Analyzer) (*unitResult, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	cfg := new(config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	res := &unitResult{importPath: cfg.ImportPath}

	if !inModule(cfg.ImportPath, modulePath) {
		// Out-of-module dependency: no conventions to check, no facts to
		// export. Write the (empty) facts file the go command expects.
		return res, writeVetx(cfg, &facts.Package{})
	}

	fset := token.NewFileSet()
	res.fset = fset
	var files []*ast.File
	var parseErr error
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		if f != nil {
			files = append(files, f)
		}
	}

	pkg, info, typeErr := typecheck(fset, cfg, files)
	if parseErr != nil || typeErr != nil {
		if cfg.SucceedOnTypecheckFailure {
			return res, writeVetx(cfg, &facts.Package{})
		}
		if parseErr != nil {
			return nil, parseErr
		}
		return nil, typeErr
	}

	own := facts.Scan(files, info)
	if err := writeVetx(cfg, own); err != nil {
		return nil, err
	}
	if cfg.VetxOnly {
		// Facts-gathering pass for a dependency: findings are reported
		// when the unit is analyzed as a root.
		return res, nil
	}

	deps, err := depFacts(cfg)
	if err != nil {
		return nil, err
	}
	sup := analysis.BuildSuppressions(fset, files)
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     own,
			DepFacts:  deps,
			Report: func(d analysis.Diagnostic) {
				if !sup.Suppressed(fset.Position(d.Pos), a.SuppressKey) {
					res.findings = append(res.findings, finding{analyzer: a.Name, diag: d})
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.Slice(res.findings, func(i, j int) bool { return res.findings[i].diag.Pos < res.findings[j].diag.Pos })
	return res, nil
}

// inModule reports whether a unit import path (possibly a test variant
// like "mod/pkg [mod/pkg.test]" or "mod/pkg_test") belongs to the
// module.
func inModule(importPath, modulePath string) bool {
	if modulePath == "" {
		return true
	}
	p, _, _ := strings.Cut(importPath, " ")
	return p == modulePath ||
		strings.HasPrefix(p, modulePath+"/") ||
		strings.HasPrefix(p, modulePath+".") ||
		strings.HasPrefix(p, modulePath+"_test")
}

// goVersionRE matches the language versions go/types accepts.
var goVersionRE = regexp.MustCompile(`^go[0-9]+\.[0-9]+(\.[0-9]+)?$`)

// typecheck checks the unit against the export data of its dependencies,
// resolving import paths through the unit's ImportMap.
func typecheck(fset *token.FileSet, cfg *config, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	goVersion := cfg.GoVersion
	if !goVersionRE.MatchString(goVersion) {
		goVersion = ""
	}
	arch := os.Getenv("GOARCH")
	if arch == "" {
		arch = runtime.GOARCH
	}
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, arch),
		GoVersion: goVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// depFacts decodes the dependency .vetx files the go command listed and
// returns them keyed by canonical import path (test-variant suffixes
// stripped). A listed file that cannot be read or decoded fails the unit:
// read as "no annotations", it would let every cross-package check pass
// silently. An empty file is a dependency without facts.
func depFacts(cfg *config) (func(path string) *facts.Package, error) {
	deps := make(map[string]*facts.Package, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		var fs *facts.Package
		if err == nil {
			fs, err = facts.Decode(data)
		}
		if err != nil {
			return nil, fmt.Errorf("facts of dependency %s (%s): %v", path, file, err)
		}
		p, _, _ := strings.Cut(path, " ")
		deps[p] = fs
	}
	return func(path string) *facts.Package { return deps[path] }, nil
}

// writeVetx stores the unit's facts where the go command asked for them.
func writeVetx(cfg *config, fs *facts.Package) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data, err := fs.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}
