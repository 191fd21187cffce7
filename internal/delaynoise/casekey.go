package delaynoise

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/rcnet"
	"repro/internal/waveform"
)

// Key returns the content key of a case: a canonical, length-prefixed
// encoding of everything the analysis reads from it —
//
//   - the interconnect: every circuit element (name, terminals, value
//     bits, source waveform breakpoints), the victim and aggressor node
//     names, and the spec the rough driver fits read;
//   - every driver: cell name, the bits of its input slew and start, and
//     its direction;
//   - the receiver cell name, the ReceiverLoad and AggLoad bits, the
//     Sink, and the ExtraLoads in sorted node order.
//
// Cells are identified by name, as the session caches identify them.
// Two cases with equal keys analyze to bit-identical results under the
// same options, whether or not they share pointers. Comparing keys is
// the exact equality check itself, so no hash collision can make two
// different cases look alike. A batch engine uses this to analyze each
// distinct case once.
func (c *Case) Key() string {
	if c == nil {
		return ""
	}
	var k keyBuf
	k.net(c.Net)
	k.driver(c.Victim)
	k.num(uint64(len(c.Aggressors)))
	for _, a := range c.Aggressors {
		k.driver(a)
	}
	k.cell(c.Receiver)
	k.float(c.ReceiverLoad)
	k.float(c.AggLoad)
	k.str(c.Sink)
	nodes := make([]string, 0, len(c.ExtraLoads))
	for n := range c.ExtraLoads {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	k.num(uint64(len(nodes)))
	for _, n := range nodes {
		k.str(n)
		k.float(c.ExtraLoads[n])
	}
	return string(k)
}

// keyBuf accumulates a case key. Counts and lengths are uvarints and
// floats their fixed eight bytes, and every variable-length field
// carries its length, so distinct cases never encode to the same bytes.
type keyBuf []byte

func (k *keyBuf) num(v uint64) { *k = binary.AppendUvarint(*k, v) }

func (k *keyBuf) float(f float64) { *k = binary.LittleEndian.AppendUint64(*k, math.Float64bits(f)) }

func (k *keyBuf) flag(b bool) {
	if b {
		*k = append(*k, 1)
	} else {
		*k = append(*k, 0)
	}
}

func (k *keyBuf) str(s string) {
	k.num(uint64(len(s)))
	*k = append(*k, s...)
}

func (k *keyBuf) strs(ss []string) {
	k.num(uint64(len(ss)))
	for _, s := range ss {
		k.str(s)
	}
}

// cell writes a cell's name; a nil cell (an invalid case) writes a
// marker no named cell can produce.
func (k *keyBuf) cell(c *device.Cell) {
	k.flag(c != nil)
	if c != nil {
		k.str(c.Name)
	}
}

func (k *keyBuf) driver(d DriverSpec) {
	k.cell(d.Cell)
	k.float(d.InputSlew)
	k.flag(d.OutputRising)
	k.float(d.InputStart)
}

func (k *keyBuf) line(l rcnet.LineSpec) {
	k.str(l.Name)
	k.num(uint64(l.Segments))
	k.float(l.RTotal)
	k.float(l.CGround)
}

func (k *keyBuf) net(n *rcnet.CoupledNet) {
	k.flag(n != nil)
	if n == nil {
		return
	}
	k.circuit(n.Circuit)
	k.str(n.VictimIn)
	k.str(n.VictimOut)
	k.strs(n.AggIn)
	k.strs(n.AggOut)
	k.line(n.Spec.Victim)
	k.num(uint64(len(n.Spec.Aggressors)))
	for _, a := range n.Spec.Aggressors {
		k.line(a.Line)
		k.float(a.CCouple)
		k.float(a.From)
		k.float(a.To)
	}
}

// circuitKey returns a circuit's exact byte encoding, the key of the
// C-effective characterizations held against it.
func circuitKey(c *netlist.Circuit) string {
	var k keyBuf
	k.circuit(c)
	return string(k)
}

func (k *keyBuf) circuit(c *netlist.Circuit) {
	k.flag(c != nil)
	if c == nil {
		return
	}
	k.num(uint64(len(c.Resistors)))
	for _, r := range c.Resistors {
		k.str(r.Name)
		k.str(r.A)
		k.str(r.B)
		k.float(r.R)
	}
	k.num(uint64(len(c.Capacitors)))
	for _, cp := range c.Capacitors {
		k.str(cp.Name)
		k.str(cp.A)
		k.str(cp.B)
		k.float(cp.C)
	}
	k.num(uint64(len(c.Drivers)))
	for _, d := range c.Drivers {
		k.str(d.Name)
		k.str(d.A)
		k.float(d.R)
		k.pwl(d.V)
	}
}

func (k *keyBuf) pwl(w *waveform.PWL) {
	k.flag(w != nil)
	if w == nil {
		return
	}
	k.num(uint64(len(w.T)))
	for i := range w.T {
		k.float(w.T[i])
		k.float(w.V[i])
	}
}
