package rules

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestTestOnly(t *testing.T) {
	linttest.TestModuleAnalyzer(t, TestOnly, "testdata/testonly", "repro/internal/testonlydata")
}

// TestTestOnlyDirectives: a reasonless suppression suppresses nothing
// and is reported, and so is one whose declaration has a use.
func TestTestOnlyDirectives(t *testing.T) {
	pkgs := linttest.LoadFixture(t, "testdata/testonly_directives", "repro/internal/testonlydirectives")
	pkgs[0].Target = true
	diags, err := lint.Run(pkgs, []*lint.Analyzer{TestOnly})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"ignore: suppression of noiselint/testonly needs a reason",
		"testonly: exported NoReason has no use outside tests; delete it or move it into the tests that use it",
		"ignore: stale suppression: no noiselint/testonly finding here to suppress",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTestOnlyPerPackageRun: a run that targets one package reports
// exactly that package's share of a run over all of them, because the
// uses come from every loaded package either way.
func TestTestOnlyPerPackageRun(t *testing.T) {
	pkgs := linttest.LoadFixture(t, "testdata/testonly", "repro/internal/testonlydata")
	run := func(targets ...*lint.Package) []lint.Diagnostic {
		for _, p := range pkgs {
			p.Target = false
		}
		for _, p := range targets {
			p.Target = true
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{TestOnly})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	all := run(pkgs...)
	if len(all) == 0 {
		t.Fatal("fixture produced no findings")
	}
	for _, p := range pkgs {
		var share []lint.Diagnostic
		for _, d := range all {
			if filepath.Dir(d.Pos.Filename) == p.Dir {
				share = append(share, d)
			}
		}
		if got := run(p); !reflect.DeepEqual(got, share) {
			t.Errorf("%s alone: %v, want %v", p.Path, got, share)
		}
	}
}

// TestTestOnlySeesNestedModules runs the analyzer on the real tree: the
// only non-test callers of pathnoise.Assemble and workload.BusProfile
// are in cmd/noisebench, its own module, so a pass blind to that module
// would flag both, and a run on their packages flags neither.
func TestTestOnlySeesNestedModules(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./internal/pathnoise", "./internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	var blind []*lint.Package
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/cmd/noisebench") {
			blind = append(blind, p)
		}
	}
	if len(blind) == len(pkgs) {
		t.Fatal("Load did not load the cmd/noisebench module")
	}
	flagged := func(pkgs []*lint.Package) map[string]bool {
		diags, err := lint.Run(pkgs, []*lint.Analyzer{TestOnly})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, d := range diags {
			out[d.Message] = true
		}
		return out
	}
	seen, unseen := flagged(pkgs), flagged(blind)
	for _, name := range []string{"Assemble", "BusProfile"} {
		msg := "exported " + name + " has no use outside tests; delete it or move it into the tests that use it"
		if seen[msg] {
			t.Errorf("%s flagged although cmd/noisebench calls it", name)
		}
		if !unseen[msg] {
			t.Errorf("%s not flagged without cmd/noisebench; the test no longer shows the nested module is read", name)
		}
	}
}
