package delaynoise

// Resident entry counts for the warm-start tests, which check what a
// snapshot seeds.

// Len reports the resident entry count across the cache's three maps.
func (cc *CharCache) Len() int {
	if cc == nil {
		return 0
	}
	return cc.rough.Len() + cc.full.Len() + cc.hold.Len()
}

// Len reports the resident reduction count.
func (rc *ROMCache) Len() int {
	if rc == nil {
		return 0
	}
	return rc.roms.Len()
}
