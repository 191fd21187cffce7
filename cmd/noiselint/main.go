// Command noiselint is the repository's domain-specific static
// analyzer: a multichecker running every analyzer in
// internal/lint/rules over the given package patterns. Module
// analyzers (testonly) read the uses of the whole module tree, the
// nested cmd/noisebench module included, whatever the patterns, and
// report only in the matched packages.
//
// Usage:
//
//	noiselint [-list] [-json] [packages]
//
// With no patterns it analyzes ./... relative to the current directory.
// Findings print one per line as file:line:col: message (noiselint/<analyzer>)
// — the shape .github/noiselint-problem-matcher.json teaches GitHub to
// annotate — or, with -json, as a JSON array of
// {file, line, col, message, analyzer} objects on stdout for tooling.
// A non-zero exit status reports that findings exist. Suppress a
// finding with a directive on the offending line or the line above:
//
//	//lint:ignore noiselint/<analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/lint"
	"repro/internal/lint/rules"
)

func main() {
	cliutil.Init("noiselint")
	listOnly := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: noiselint [-list] [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range rules.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  noiselint/%s\n      %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	cliutil.ExitIfVersion()
	if *listOnly {
		for _, a := range rules.All() {
			fmt.Printf("noiselint/%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "noiselint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noiselint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, rules.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "noiselint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
			Analyzer string `json:"analyzer"`
		}
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
				Analyzer: d.Analyzer,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "noiselint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "noiselint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
