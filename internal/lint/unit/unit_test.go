package unit

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// fakeResult builds a unitResult whose positions resolve inside one
// synthetic file, with one finding per (analyzer, line) pair.
func fakeResult(importPath string, findings ...[2]string) *unitResult {
	fset := token.NewFileSet()
	f := fset.AddFile("probe.go", -1, 1000)
	for i := 0; i < 1000; i++ {
		if i%10 == 0 {
			f.AddLine(i)
		}
	}
	r := &unitResult{importPath: importPath, fset: fset}
	for i, fa := range findings {
		r.findings = append(r.findings, finding{
			analyzer: fa[0],
			diag:     analysis.Diagnostic{Pos: f.Pos(10 * (i + 1)), Message: fa[1]},
		})
	}
	return r
}

func TestJSONEmptyUnit(t *testing.T) {
	got := string(fakeResult("pktclass/internal/bitvec").JSON())
	if got != "{}" {
		t.Fatalf("clean unit JSON = %q, want {}", got)
	}
}

func TestJSONTreeShape(t *testing.T) {
	r := fakeResult("pktclass/internal/serve",
		[2]string{"poollifetime", "pooled sc is used after release"},
		[2]string{"atomicpin", "pinned field loaded twice"},
		[2]string{"poollifetime", "pooled t is used after finish"},
	)
	var tree map[string]map[string][]jsonDiagnostic
	if err := json.Unmarshal(r.JSON(), &tree); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	byAnalyzer, ok := tree["pktclass/internal/serve"]
	if !ok {
		t.Fatalf("tree keys = %v, want the unit import path", tree)
	}
	if n := len(byAnalyzer["poollifetime"]); n != 2 {
		t.Errorf("poollifetime findings = %d, want 2", n)
	}
	if n := len(byAnalyzer["atomicpin"]); n != 1 {
		t.Errorf("atomicpin findings = %d, want 1", n)
	}
	d := byAnalyzer["atomicpin"][0]
	if d.Message != "pinned field loaded twice" {
		t.Errorf("message = %q", d.Message)
	}
	// posn must be file:line:col — the shape editors and the problem
	// matcher grammar agree on.
	parts := strings.Split(d.Posn, ":")
	if len(parts) != 3 || parts[0] != "probe.go" {
		t.Errorf("posn = %q, want probe.go:line:col", d.Posn)
	}
}

func TestInModule(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"pktclass", true},
		{"pktclass/internal/serve", true},
		{"pktclass/internal/serve [pktclass/internal/serve.test]", true},
		{"pktclass/internal/serve_test [pktclass/internal/serve.test]", true},
		{"pktclass.test", true},
		{"fmt", false},
		{"golang.org/x/tools", false},
	}
	for _, c := range cases {
		if got := inModule(c.path, "pktclass"); got != c.want {
			t.Errorf("inModule(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestCorruptDependencyFactsFailUnit runs one root unit whose dependency
// facts file is corrupt: the unit must fail naming the dependency and the
// file, not analyze as if the dependency declared no annotations. An
// empty facts file and a path absent from PackageVetx still mean empty
// facts.
func TestCorruptDependencyFactsFailUnit(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, err := (&facts.Package{Immutable: []string{"Expanded"}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	src := write("probe.go", []byte("package probe\n"))
	runWith := func(vetx map[string]string) error {
		data, err := json.Marshal(config{
			ImportPath:  "pktclass/probe",
			GoFiles:     []string{src},
			PackageVetx: vetx,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(write("probe.cfg", data), "pktclass", []*analysis.Analyzer{{
			Name: "probe",
			Run:  func(*analysis.Pass) error { return nil },
		}})
		return err
	}

	okFiles := map[string]string{
		"pktclass/internal/ruleset": write("ruleset.vetx", good),
		"pktclass/internal/bitvec":  write("bitvec.vetx", nil),
	}
	if err := runWith(okFiles); err != nil {
		t.Fatalf("valid and empty facts files: %v", err)
	}

	corrupt := write("update.vetx", good[:len(good)/2])
	okFiles["pktclass/internal/update [pktclass/internal/update.test]"] = corrupt
	err = runWith(okFiles)
	if err == nil {
		t.Fatal("corrupt facts file analyzed as empty facts, want an error")
	}
	for _, want := range []string{"pktclass/internal/update", corrupt} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}

	delete(okFiles, "pktclass/internal/update [pktclass/internal/update.test]")
	okFiles["pktclass/internal/serve"] = filepath.Join(dir, "missing.vetx")
	if err := runWith(okFiles); err == nil || !strings.Contains(err.Error(), "pktclass/internal/serve") {
		t.Errorf("unreadable facts file: err = %v, want one naming pktclass/internal/serve", err)
	}
}
