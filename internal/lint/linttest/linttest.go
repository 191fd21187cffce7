// Package linttest is the analysistest equivalent of the noiselint
// framework: it runs one analyzer over a testdata package (or, for a
// module analyzer, a small module of them) and checks the findings
// against `// want "regexp"` comments placed on the offending lines. A
// want comment may carry several quoted patterns when a line triggers
// several findings. Lines without a want comment must stay clean.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	exportOnce sync.Once
	exportMap  lint.ExportData
	exportRoot string
	exportErr  error
)

// moduleExports compiles the whole module once per test process and
// returns its export data (standard library included), so testdata
// packages can import real repro packages like internal/noiseerr.
func moduleExports() (string, lint.ExportData, error) {
	exportOnce.Do(func() {
		dir, err := os.Getwd()
		if err != nil {
			exportErr = err
			return
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				exportErr = fmt.Errorf("lint: no go.mod above test directory")
				return
			}
			dir = parent
		}
		exportRoot = dir
		_, exportMap, exportErr = lint.List(dir, "./...")
	})
	return exportRoot, exportMap, exportErr
}

// want is one expected finding.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// fixtureImporter resolves the subdirectory packages of a multi-package
// fixture from their freshly checked form and everything else from the
// module's export data.
type fixtureImporter struct {
	base types.Importer
	deps map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.deps[path]; ok {
		return p, nil
	}
	return fi.base.Import(path)
}

// TestAnalyzer runs a through the framework (suppression directives
// included) over the testdata package in srcDir, type-checked under
// importPath, and compares the diagnostics against the package's
// `// want` comments. Choosing importPath places the fake package in or
// out of an analyzer's scope exactly like a real tree package.
//
// A subdirectory of srcDir is a dependency package: it is type-checked
// first, becomes importable from the fixture as importPath/<subdir>,
// and is not itself analyzed (cross-package rules like goleak's
// lifecycle-parameter check need real imported signatures, not just
// export data of the production tree). Subdirectories are checked in
// name order, so a dep may import an earlier-named sibling.
func TestAnalyzer(t *testing.T, a *lint.Analyzer, srcDir, importPath string) {
	t.Helper()
	pkgs, wants := loadFixture(t, srcDir, importPath)
	pkgs[len(pkgs)-1].Target = true
	check(t, a, pkgs, wants)
}

// TestModuleAnalyzer is TestAnalyzer for a module analyzer: every
// package of the fixture is a target, so `// want` comments may sit in
// any of them. A fixture package's _test.go files are not type-checked;
// their imports become the package's TestImports, as `go list` reports
// them for a real package.
func TestModuleAnalyzer(t *testing.T, a *lint.Analyzer, srcDir, importPath string) {
	t.Helper()
	pkgs, wants := loadFixture(t, srcDir, importPath)
	for _, p := range pkgs {
		p.Target = true
	}
	check(t, a, pkgs, wants)
}

// LoadFixture type-checks the fixture in srcDir as TestModuleAnalyzer
// does and returns its packages, the root package last, none of them
// marked as a target.
func LoadFixture(t *testing.T, srcDir, importPath string) []*lint.Package {
	t.Helper()
	pkgs, _ := loadFixture(t, srcDir, importPath)
	return pkgs
}

// check runs a over pkgs and matches the diagnostics against wants.
func check(t *testing.T, a *lint.Analyzer, pkgs []*lint.Package, wants []*want) {
	t.Helper()
	diags, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// loadFixture parses and type-checks the fixture in srcDir: each
// subdirectory (in name order) as importPath/<subdir>, then srcDir
// itself as importPath. It returns the packages in that order and the
// `// want` expectations of all their files.
func loadFixture(t *testing.T, srcDir, importPath string) ([]*lint.Package, []*want) {
	t.Helper()
	_, exports, err := moduleExports()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &fixtureImporter{base: exports.Importer(fset), deps: map[string]*types.Package{}}
	var pkgs []*lint.Package
	var wants []*want
	load := func(dir, path string) {
		files, testImports := parseDir(t, fset, dir)
		pkg, info, err := lint.Check(path, fset, files, imp)
		if err != nil {
			t.Fatalf("type-checking fixture package %s: %v", path, err)
		}
		imp.deps[path] = pkg
		for _, f := range files {
			wants = append(wants, parseWants(t, f, fset)...)
		}
		pkgs = append(pkgs, &lint.Package{
			Path: path, Dir: dir, Fset: fset, Files: files, Pkg: pkg, Info: info,
			TestImports: testImports,
		})
	}
	for _, e := range entries {
		if e.IsDir() {
			load(filepath.Join(srcDir, e.Name()), importPath+"/"+e.Name())
		}
	}
	load(srcDir, importPath)
	return pkgs, wants
}

// parseDir parses the non-test .go files of one fixture directory and
// returns them with the imports of its _test.go files.
func parseDir(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	var testImports []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if strings.HasSuffix(e.Name(), "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				testImports = append(testImports, p)
			}
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files, testImports
}

// parseWants extracts the expectations of one file. Every quoted string
// after "// want" is one expected-diagnostic pattern for that line.
func parseWants(t *testing.T, f *ast.File, fset *token.FileSet) []*want {
	t.Helper()
	var out []*want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := m[1]
			n := 0
			for rest != "" {
				q, tail, err := cutQuoted(rest)
				if err != nil {
					t.Fatalf("%s:%d: bad want comment %q: %v", pos.Filename, pos.Line, c.Text, err)
				}
				re, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, q, err)
				}
				out = append(out, &want{file: pos.Filename, line: pos.Line, pattern: re})
				rest = tail
				n++
			}
			if n == 0 {
				t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].line < out[j].line
	})
	return out
}

// cutQuoted splits one leading Go-quoted string off s.
func cutQuoted(s string) (unquoted, rest string, err error) {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted pattern at %q", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			q, err := strconv.Unquote(s[:i+1])
			return q, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated pattern %q", s)
}

// claim marks the first unmatched want covering d and reports whether
// one existed.
func claim(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
