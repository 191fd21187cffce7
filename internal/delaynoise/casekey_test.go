package delaynoise

import (
	"math"
	"testing"
)

// TestCaseKey: the key depends on content alone, not on pointers or map
// insertion order, and a one-bit change to any field the analysis reads
// changes it.
func TestCaseKey(t *testing.T) {
	withLoads := func() *Case {
		c := testCase(t)
		c.ExtraLoads = map[string]float64{"v.2": 1e-15, "v.3": 2e-15}
		return c
	}
	key := withLoads().Key()
	rebuilt := testCase(t)
	rebuilt.ExtraLoads = map[string]float64{}
	rebuilt.ExtraLoads["v.3"] = 2e-15
	rebuilt.ExtraLoads["v.2"] = 1e-15
	if rebuilt.Key() != key {
		t.Fatal("a rebuilt case with the same content changed the key")
	}
	up := func(f float64) float64 { return math.Nextafter(f, math.Inf(1)) }
	for name, mutate := range map[string]func(c *Case){
		"sink":             func(c *Case) { c.Sink = "v.4" },
		"extra load value": func(c *Case) { c.ExtraLoads["v.3"] = up(2e-15) },
		"extra load node":  func(c *Case) { c.ExtraLoads["v.4"] = 0 },
		"victim slew":      func(c *Case) { c.Victim.InputSlew = up(c.Victim.InputSlew) },
		"victim start":     func(c *Case) { c.Victim.InputStart = up(c.Victim.InputStart) },
		"victim direction": func(c *Case) { c.Victim.OutputRising = !c.Victim.OutputRising },
		"aggressor cell":   func(c *Case) { c.Aggressors[0].Cell = cellOf(t, "INVX4") },
		"receiver":         func(c *Case) { c.Receiver = cellOf(t, "INVX4") },
		"receiver load":    func(c *Case) { c.ReceiverLoad = up(c.ReceiverLoad) },
		"aggressor load":   func(c *Case) { c.AggLoad = 1e-15 },
		"resistor":         func(c *Case) { c.Net.Circuit.Resistors[0].R = up(c.Net.Circuit.Resistors[0].R) },
		"coupling spec":    func(c *Case) { c.Net.Spec.Aggressors[0].CCouple = up(c.Net.Spec.Aggressors[0].CCouple) },
		"receiver node":    func(c *Case) { c.Net.VictimOut = "v.4" },
	} {
		c := withLoads()
		mutate(c)
		if c.Key() == key {
			t.Errorf("%s: a changed case kept the key", name)
		}
	}
}
