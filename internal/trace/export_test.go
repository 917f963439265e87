package trace

// Accessors only this package's tests use.

// Total returns the integrated energy.
func (p *Profile) Total() float64 {
	var s float64
	for _, v := range p.Samples {
		s += v
	}
	return s
}
