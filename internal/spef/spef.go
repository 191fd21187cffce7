// Package spef reads and writes parasitic netlists in a minimal
// SPEF-like text format, the interchange between the workload generator
// and the analysis tool:
//
//	*SPEF mini
//	*DESIGN <name>
//	*D_NET <net>            (sections are informational)
//	*RES
//	<name> <nodeA> <nodeB> <ohms>
//	*CAP
//	<name> <nodeA> <nodeB> <farads>   (nodeB may be 0 for ground)
//	*END
//
// Values are plain SI floats. Lines starting with "//" or "#" are
// comments. Only resistors and capacitors are represented — drivers and
// receivers are bound at analysis time.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Write serializes the R/C content of a circuit.
func Write(w io.Writer, design string, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "*SPEF mini")
	fmt.Fprintf(bw, "*DESIGN %s\n", design)
	fmt.Fprintln(bw, "*RES")
	for _, r := range c.Resistors {
		fmt.Fprintf(bw, "%s %s %s %.9g\n", r.Name, r.A, r.B, r.R)
	}
	fmt.Fprintln(bw, "*CAP")
	for _, cap := range c.Capacitors {
		fmt.Fprintf(bw, "%s %s %s %.9g\n", cap.Name, cap.A, cap.B, cap.C)
	}
	fmt.Fprintln(bw, "*END")
	return bw.Flush()
}

// Result is a parsed parasitic file.
type Result struct {
	Design  string
	Circuit *netlist.Circuit
}

// Parse reads a mini-SPEF stream.
//
//lint:ignore noiselint/testonly the reader half of netgen's SPEF output, which integration_test reads back; no tool takes SPEF input yet
func Parse(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	res := &Result{Circuit: netlist.NewCircuit()}
	section := ""
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "*") {
			fields := strings.Fields(line)
			switch strings.ToUpper(fields[0]) {
			case "*SPEF":
				sawHeader = true
			case "*DESIGN":
				if len(fields) > 1 {
					res.Design = fields[1]
				}
			case "*RES":
				section = "res"
			case "*CAP":
				section = "cap"
			case "*END":
				section = ""
			case "*D_NET":
				// informational
			default:
				return nil, fmt.Errorf("spef: line %d: unknown directive %q", lineNo, fields[0])
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("spef: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		val, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("spef: line %d: bad value %q: %w", lineNo, fields[3], err)
		}
		switch section {
		case "res":
			if val <= 0 {
				return nil, fmt.Errorf("spef: line %d: non-positive resistance %g", lineNo, val)
			}
			res.Circuit.AddR(fields[0], fields[1], fields[2], val)
		case "cap":
			if val < 0 {
				return nil, fmt.Errorf("spef: line %d: negative capacitance %g", lineNo, val)
			}
			res.Circuit.AddC(fields[0], fields[1], fields[2], val)
		default:
			return nil, fmt.Errorf("spef: line %d: element outside *RES/*CAP section", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spef: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("spef: missing *SPEF header")
	}
	return res, nil
}
