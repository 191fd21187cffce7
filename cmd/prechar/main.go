// Command prechar writes the library's alignment tables as JSON under
// the output directory: for each requested receiver cell, the paper's
// 8-point worst-case alignment-voltage table, for both victim
// directions. The files are for inspection, plotting and outside
// tools. The analysis flow reads none of them back: it builds the
// tables it needs in-session (engine.Session.Table) and keeps them in
// the warm store. Thevenin driver models are fitted per net in-session
// and never tabulated.
//
// Usage:
//
//	prechar [-cells INVX1,INVX2] [-o prechar/] [-grid 25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/align"
	"repro/internal/cliutil"
)

func main() {
	cliutil.Init("prechar")
	cellsFlag := flag.String("cells", "", "comma-separated cell names (default: whole library)")
	outDir := flag.String("o", "prechar", "output directory")
	grid := flag.Int("grid", 25, "exhaustive-search grid per alignment corner")
	flag.Parse()
	cliutil.ExitIfVersion()
	if *grid < 5 {
		cliutil.Usagef("need a grid of at least 5, got %d", *grid)
	}

	lib := cliutil.Library()
	tech := lib.Tech
	names := lib.Names()
	if *cellsFlag != "" {
		names = strings.Split(*cellsFlag, ",")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	for _, name := range names {
		cell, err := lib.Cell(strings.TrimSpace(name))
		if err != nil {
			cliutil.Usagef("%v", err)
		}
		// Alignment tables, both victim directions.
		for _, rising := range []bool{true, false} {
			cfg := align.DefaultConfig(tech)
			cfg.Grid = *grid
			tab, err := align.Precharacterize(cell, rising, cfg)
			if err != nil {
				log.Fatalf("%s rising=%v: %v", cell.Name, rising, err)
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s.align.%v.json", cell.Name, rising))
			if err := writeJSON(path, tab); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s (8 points)", path)
		}
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return f.Close()
}
