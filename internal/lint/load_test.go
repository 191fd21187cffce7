package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// testRoot returns the module root above the test's working directory.
func testRoot(t *testing.T) string {
	t.Helper()
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestListReturnsModuleTargetsAndExports(t *testing.T) {
	root := testRoot(t)
	targets, exports, err := List(root, "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0].ImportPath != "repro/internal/lint" {
		t.Fatalf("targets = %+v, want exactly repro/internal/lint", targets)
	}
	// The export closure must cover the standard library dependencies
	// the importer will be asked for.
	for _, dep := range []string{"fmt", "go/types", "go/ast"} {
		if exports[dep] == "" {
			t.Errorf("no export data for dependency %q", dep)
		}
	}
}

func TestLoadTypeChecksAgainstExportData(t *testing.T) {
	root := testRoot(t)
	// Loading one package type-checks the whole module tree, the
	// nested cmd/noisebench module included, and marks only the
	// pattern's package as a target.
	pkgs, err := Load(root, "./internal/warmstore")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, q := range pkgs {
		byPath[q.Path] = q
	}
	p := byPath["repro/internal/warmstore"]
	if p == nil {
		t.Fatalf("repro/internal/warmstore not among loaded packages (got %d)", len(pkgs))
	}
	for path, target := range map[string]bool{
		"repro/internal/warmstore": true,
		"repro/internal/colblob":   false,
		"repro/cmd/clarinet":       false,
		"repro/cmd/noisebench":     false,
	} {
		if q := byPath[path]; q == nil || q.Info == nil {
			t.Errorf("%s not loaded and type-checked", path)
		} else if q.Target != target {
			t.Errorf("%s: Target = %v, want %v", path, q.Target, target)
		}
	}
	// Cross-package resolution: the Store type's methods reference
	// repro/internal/colblob and repro/internal/metrics, both imported
	// from export data, so a fully typed tree has no invalid types on
	// declarations.
	obj := p.Pkg.Scope().Lookup("Store")
	if obj == nil {
		t.Fatal("warmstore.Store not found in the checked package scope")
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("Store is %T, want *types.Named", obj.Type())
	}
	if named.NumMethods() == 0 {
		t.Fatal("Store has no methods after type checking")
	}
	if len(p.Files) == 0 || p.Info == nil {
		t.Fatal("loaded package is missing files or type info")
	}
}

// TestCheckRecordsGenericInstances feeds Check a package that both
// declares and instantiates a generic type and function, and asserts
// the instantiation data lands in Info.Instances — the cachekey
// analyzer reads it to recover type arguments at memo.Cache call sites.
func TestCheckRecordsGenericInstances(t *testing.T) {
	const src = `package g

type Cache[K comparable, V any] struct{ m map[K]V }

func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: map[K]V{}}
}

func Use() *Cache[string, int] {
	return New[string, int]()
}

func Infer() {
	pick(1.5)
}

func pick[T any](v T) T { return v }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "g.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := Check("example.com/g", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name() != "g" {
		t.Fatalf("package name = %q", pkg.Name())
	}
	wantInst := map[string][]string{
		"New":   {"string", "int"},
		"Cache": {"string", "int"},
		"pick":  {"float64"},
	}
	// A name can be instantiated at several identifiers (Cache[K, V]
	// inside New as well as Cache[string, int] in Use), and map order
	// decides which one a single slot would keep: collect them all.
	got := map[string][]string{}
	for id, inst := range info.Instances {
		var args []string
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			args = append(args, inst.TypeArgs.At(i).String())
		}
		got[id.Name] = append(got[id.Name], strings.Join(args, ","))
	}
	for name, want := range wantInst {
		insts, ok := got[name]
		if !ok {
			t.Errorf("no Instances entry for %s (got %v)", name, got)
			continue
		}
		if !slices.Contains(insts, strings.Join(want, ",")) {
			t.Errorf("%s instantiated with %v, want %v among them", name, insts, want)
		}
	}
}

// TestLoadGenericInstantiationAcrossPackages loads a real package that
// instantiates the generic memo.Cache imported from export data, and
// asserts the instantiation is visible with concrete type arguments.
func TestLoadGenericInstantiationAcrossPackages(t *testing.T) {
	root := testRoot(t)
	pkgs, err := Load(root, "./internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	var p *Package
	for _, q := range pkgs {
		if q.Path == "repro/internal/engine" {
			p = q
		}
	}
	if p == nil {
		t.Fatal("repro/internal/engine not among loaded packages")
	}
	found := false
	for id, inst := range p.Info.Instances {
		if id.Name != "New" || inst.TypeArgs.Len() != 2 {
			continue
		}
		obj := p.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "repro/internal/memo" {
			continue
		}
		found = true
		if arg := inst.TypeArgs.At(1).String(); arg != "*repro/internal/align.Table" {
			t.Errorf("memo.New value type arg = %s, want *repro/internal/align.Table", arg)
		}
	}
	if !found {
		t.Error("no memo.New instantiation recorded in engine's Info.Instances")
	}
}
