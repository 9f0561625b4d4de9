package core

// absorbedSeeds returns how many seeds the oracle's covered states have
// absorbed over every MarginalCoverage and GreedyCoverage call so far.
func (o *Oracle) absorbedSeeds() int64 {
	o.covers.mu.Lock()
	defer o.covers.mu.Unlock()
	return o.covers.absorbed
}

// idleCovers returns how many covered states the oracle holds between calls.
func (o *Oracle) idleCovers() int {
	o.covers.mu.Lock()
	defer o.covers.mu.Unlock()
	return len(o.covers.idle)
}
