package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// flagTODO reports every occurrence of the identifier "todo", giving the
// suppression machinery something position-accurate to filter.
var flagTODO = &Analyzer{
	Name: "todo",
	Doc:  "test analyzer flagging the identifier todo",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "todo" {
					pass.Reportf(id.Pos(), "todo identifier")
				}
				return true
			})
		}
		return nil
	},
}

// load parses src as a single-file package without type information —
// the suppression pipeline only needs positions and comments.
func load(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "suppress_test_input.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "repro/internal/linttestpkg", Fset: fset, Files: []*ast.File{f}, Target: true}
}

func run(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := Run([]*Package{load(t, src)}, []*Analyzer{flagTODO})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestFindingsReported(t *testing.T) {
	diags := run(t, `package p

var todo = 1
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "todo" || d.Pos.Line != 3 {
		t.Errorf("diagnostic = %v, want todo at line 3", d)
	}
	if !strings.Contains(d.String(), "noiselint/todo") {
		t.Errorf("String() = %q, want qualified analyzer name", d.String())
	}
}

func TestSuppressionOnPrecedingLine(t *testing.T) {
	diags := run(t, `package p

//lint:ignore noiselint/todo exercising the directive
var todo = 1
`)
	if len(diags) != 0 {
		t.Fatalf("suppressed finding still reported: %v", diags)
	}
}

func TestSuppressionOnSameLine(t *testing.T) {
	diags := run(t, `package p

var todo = 1 //lint:ignore noiselint/todo same-line directive
`)
	if len(diags) != 0 {
		t.Fatalf("suppressed finding still reported: %v", diags)
	}
}

func TestSuppressionWithoutReasonIsFlagged(t *testing.T) {
	diags := run(t, `package p

//lint:ignore noiselint/todo
var todo = 1
`)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (finding + bad directive): %v", len(diags), diags)
	}
	var sawIgnore, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case IgnoreAnalyzerName:
			sawIgnore = true
			if !strings.Contains(d.Message, "needs a reason") {
				t.Errorf("ignore diagnostic = %q, want a needs-a-reason message", d.Message)
			}
		case "todo":
			sawFinding = true
		}
	}
	if !sawIgnore || !sawFinding {
		t.Errorf("want both the unexplained-suppression report and the unsuppressed finding, got %v", diags)
	}
}

func TestSuppressionOfUnknownAnalyzerIsFlagged(t *testing.T) {
	diags := run(t, `package p

//lint:ignore noiselint/nosuch the analyzer name has a typo
var x = 1
`)
	if len(diags) != 1 || diags[0].Analyzer != IgnoreAnalyzerName {
		t.Fatalf("got %v, want one noiselint/ignore diagnostic", diags)
	}
	if !strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Errorf("message = %q, want unknown-analyzer report", diags[0].Message)
	}
}

func TestForeignToolDirectivesAreIgnored(t *testing.T) {
	// Directives addressed to staticcheck et al. neither suppress our
	// findings nor get flagged as malformed.
	diags := run(t, `package p

//lint:ignore SA4006 not a noiselint directive
var todo = 1
`)
	if len(diags) != 1 || diags[0].Analyzer != "todo" {
		t.Fatalf("got %v, want exactly the todo finding", diags)
	}
}

func TestWrongAnalyzerSuppressionDoesNotFilter(t *testing.T) {
	diags, err := Run([]*Package{load(t, `package p

//lint:ignore noiselint/other suppresses a different analyzer
var todo = 1
`)}, []*Analyzer{flagTODO, {Name: "other", Doc: "no-op", Run: func(*Pass) error { return nil }}})
	if err != nil {
		t.Fatal(err)
	}
	// The finding survives, and the directive — naming an analyzer that
	// ran but flagged nothing here — is reported as stale.
	var sawFinding, sawStale bool
	for _, d := range diags {
		switch d.Analyzer {
		case "todo":
			sawFinding = true
		case IgnoreAnalyzerName:
			sawStale = true
			if !strings.Contains(d.Message, "stale suppression") {
				t.Errorf("ignore diagnostic = %q, want a stale-suppression message", d.Message)
			}
		}
	}
	if !sawFinding || !sawStale || len(diags) != 2 {
		t.Fatalf("got %v, want the todo finding plus a stale-suppression report", diags)
	}
}

func TestStaleSuppressionIsFlagged(t *testing.T) {
	diags := run(t, `package p

//lint:ignore noiselint/todo nothing on the next line triggers it anymore
var x = 1
`)
	if len(diags) != 1 || diags[0].Analyzer != IgnoreAnalyzerName {
		t.Fatalf("got %v, want one noiselint/ignore diagnostic", diags)
	}
	if !strings.Contains(diags[0].Message, "stale suppression") {
		t.Errorf("message = %q, want stale-suppression report", diags[0].Message)
	}
}

func TestLiveSuppressionNotStale(t *testing.T) {
	diags := run(t, `package p

//lint:ignore noiselint/todo exercised by the var below
var todo = 1
`)
	if len(diags) != 0 {
		t.Fatalf("live suppression misreported: %v", diags)
	}
}

func TestDiagnosticsSorted(t *testing.T) {
	diags := run(t, `package p

var todo, a = 1, todo
var b = todo
`)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		prev, cur := diags[i-1].Pos, diags[i].Pos
		if cur.Line < prev.Line || (cur.Line == prev.Line && cur.Column < prev.Column) {
			t.Errorf("diagnostics out of order: %v before %v", prev, cur)
		}
	}
}
