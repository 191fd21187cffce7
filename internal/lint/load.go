package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TestImports lists the imports of the package's _test.go files.
	TestImports []string
	// Target marks a package the patterns matched. Analyzers report
	// only in targets; the other packages are loaded so that a module
	// analyzer sees their uses.
	Target bool
}

// ExportData maps import paths to compiled export-data files, as
// produced by `go list -export`. It backs the importer used for the
// dependencies of every analyzed package.
type ExportData map[string]string

// Importer returns a go/types importer resolving packages from the
// export map.
func (e ExportData) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := e[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestImports  []string
	XTestImports []string
	Standard     bool
	DepOnly      bool
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// List runs `go list -deps -export -json` in dir over the given package
// patterns, returning the module packages the patterns match and the
// export data of their full dependency closure (standard library
// included). Compilation happens through the go build cache, so
// repeated loads are cheap.
func List(dir string, patterns ...string) (targets []listPackage, exports ExportData, err error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,TestImports,XTestImports,Standard,DepOnly,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}
	exports = ExportData{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly && p.Module != nil {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// Load parses and type-checks the packages matching patterns under dir
// (the targets) and every other package of the module tree around dir:
// the module containing dir and each module nested below it, such as
// cmd/noisebench. Only non-test files are analyzed: the invariants
// guard library code, and tests legitimately use context.Background,
// stage literals in assertions, and exact float comparisons.
func Load(dir string, patterns ...string) ([]*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	mods, err := moduleTree(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	byPath := map[string]*Package{}
	add := func(listed []listPackage, exports ExportData) error {
		imp := exports.Importer(fset)
		for _, t := range listed {
			if byPath[t.ImportPath] != nil {
				continue
			}
			p, err := parseAndCheck(fset, t, imp)
			if err != nil {
				return err
			}
			byPath[p.Path] = p
			pkgs = append(pkgs, p)
		}
		return nil
	}
	targets, exports, err := List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if err := add(targets, exports); err != nil {
		return nil, err
	}
	for _, t := range targets {
		byPath[t.ImportPath].Target = true
	}
	for _, m := range mods {
		listed, exports, err := List(m, "./...")
		if err != nil {
			return nil, err
		}
		if err := add(listed, exports); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// parseAndCheck parses one listed package's non-test files and
// type-checks them against export data.
func parseAndCheck(fset *token.FileSet, t listPackage, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	pkg, info, err := Check(t.ImportPath, fset, files, imp)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		Path:        t.ImportPath,
		Dir:         t.Dir,
		Fset:        fset,
		Files:       files,
		Pkg:         pkg,
		Info:        info,
		TestImports: append(t.TestImports, t.XTestImports...),
	}, nil
}

// moduleRoot returns the directory of the go.mod at or above dir.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// moduleTree returns root and the directory of every module nested
// below it, skipping what the go tool skips: testdata, and directories
// whose names start with "." or "_".
func moduleTree(root string) ([]string, error) {
	mods := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return mods, nil
}

// Check type-checks one package's parsed files under the given import
// path, filling a fresh types.Info with everything the analyzers need
// (including generic instantiation data for the cache-key checks).
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
