package delaynoise

// Resident entry counts for the warm-start tests, which check what a
// snapshot seeds.

// Len reports the resident entry count across the cache's persisted
// maps (the rough and full characterizations).
func (cc *CharCache) Len() int {
	if cc == nil {
		return 0
	}
	return cc.rough.Len() + cc.full.Len()
}
