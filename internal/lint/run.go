package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// directivePrefix introduces a suppression comment. The syntax follows
// staticcheck so editors highlight it consistently:
//
//	//lint:ignore noiselint/<analyzer> <reason>
const directivePrefix = "//lint:ignore "

// qualifier namespaces analyzer names in directives and diagnostics.
const qualifier = "noiselint/"

// IgnoreAnalyzerName is the pseudo-analyzer under which the framework
// reports malformed suppression directives.
const IgnoreAnalyzerName = "ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	file     string
	line     int
	analyzer string // short name, "" when the target is not noiselint's
	reason   string
	pos      token.Pos
}

// directives extracts the suppression directives of a package. Comments
// targeting other tools' checks (no "noiselint/" qualifier) are kept
// with an empty analyzer so they suppress nothing but are not flagged.
func directives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				short, isOurs := strings.CutPrefix(name, qualifier)
				if !isOurs {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, directive{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: short,
					reason:   strings.TrimSpace(reason),
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// Run applies every analyzer to the target packages (module analyzers
// once, over all of pkgs), filters findings through the //lint:ignore
// directives, and reports malformed directives. The returned
// diagnostics are sorted by position.
//
//lint:ignore noiselint/ctxvariant analyzer passes are in-memory AST walks with no cancellation points
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{IgnoreAnalyzerName: true}
	ran := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	moduleRaw := map[*Package][]Diagnostic{}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{
			Analyzer: a,
			Packages: pkgs,
			report: func(pkg *Package, d Diagnostic) {
				if pkg.Target {
					moduleRaw[pkg] = append(moduleRaw[pkg], d)
				}
			},
		}
		if err := a.RunModule(pass); err != nil {
			return nil, err
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		dirs := directives(pkg.Fset, pkg.Files)
		raw := moduleRaw[pkg]
		cfgs := map[ast.Node]*CFG{}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { raw = append(raw, d) },
				cfgs:     cfgs,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		used := make([]bool, len(dirs))
		for _, d := range raw {
			matched := false
			for i, dir := range dirs {
				if suppresses(dir, d) {
					used[i] = true
					matched = true
				}
			}
			if !matched {
				out = append(out, d)
			}
		}
		// Malformed directives are findings in their own right: a
		// suppression without a reason defeats the audit trail, one
		// naming an unknown analyzer suppresses nothing and usually
		// means a typo, and one that no longer matches any finding is
		// rot — the code it excused has moved or been fixed, and the
		// stale directive would silently excuse a future regression.
		// Staleness is only judged for analyzers in this run's set: a
		// single-analyzer run (linttest) cannot tell whether another
		// analyzer's directive still earns its keep.
		for i, dir := range dirs {
			switch {
			case !known[dir.analyzer]:
				out = append(out, Diagnostic{
					Analyzer: IgnoreAnalyzerName,
					Pos:      pkg.Fset.Position(dir.pos),
					Message:  "suppression names unknown analyzer " + qualifier + dir.analyzer,
				})
			case dir.reason == "":
				out = append(out, Diagnostic{
					Analyzer: IgnoreAnalyzerName,
					Pos:      pkg.Fset.Position(dir.pos),
					Message:  "suppression of " + qualifier + dir.analyzer + " needs a reason",
				})
			case ran[dir.analyzer] && !used[i]:
				out = append(out, Diagnostic{
					Analyzer: IgnoreAnalyzerName,
					Pos:      pkg.Fset.Position(dir.pos),
					Message: "stale suppression: no " + qualifier + dir.analyzer +
						" finding here to suppress",
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// suppresses reports whether a well-formed directive targets d: same
// analyzer, same file, on the flagged line or the line above it.
func suppresses(dir directive, d Diagnostic) bool {
	return dir.analyzer == d.Analyzer && dir.reason != "" &&
		dir.file == d.Pos.Filename &&
		(dir.line == d.Pos.Line || dir.line == d.Pos.Line-1)
}
