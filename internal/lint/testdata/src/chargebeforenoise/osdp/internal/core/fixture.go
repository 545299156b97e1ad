// Package core fixture for chargebeforenoise: Session methods must
// charge before touching the noise source.
package core

// Session mirrors the real session shape: an accountant and a noise
// source.
type Session struct {
	acct *Accountant
	src  Source
}

// Accountant and Source stand in for the real types; the analyzer is
// purely syntactic.
type (
	Accountant struct{}
	Source     struct{}
)

func (s *Session) charge(eps float64) error { return nil }

// BadCount samples before charging.
func (s *Session) BadCount(eps float64) float64 {
	v := noise.Laplace(s.src, 1/eps) // want `reaches the noise source before charging`
	_ = s.charge(eps)
	return v
}

// keepSrc is a source reached without the session's src field, so only
// the sampler name can flag the draw below.
var keepSrc Source

// BadKeep draws an OsdpRR keep gap before charging.
func (s *Session) BadKeep(eps float64) float64 {
	g := noise.KeepGap(keepSrc, eps) // want `reaches the noise source before charging`
	_ = s.charge(eps)
	return g
}

// BadBulk fills a slice of uniforms before charging.
func (s *Session) BadBulk(eps float64, buf []float64) float64 {
	noise.FillUniform(keepSrc, buf) // want `reaches the noise source before charging`
	_ = s.charge(eps)
	return buf[0]
}

// BadKeepFrom turns a uniform into a keep gap before charging.
func (s *Session) BadKeepFrom(eps, u float64) float64 {
	g := noise.KeepGapFrom(u, eps) // want `reaches the noise source before charging`
	_ = s.charge(eps)
	return g
}

// GoodCount charges first, then samples.
func (s *Session) GoodCount(eps float64) float64 {
	if err := s.charge(eps); err != nil {
		return 0
	}
	return noise.Laplace(s.src, 1/eps)
}

// NoNoise never touches the source, so no charge is required.
func (s *Session) NoNoise() int { return 0 }

// Primitive takes a noise.Source parameter: a mechanism primitive whose
// caller owns the charge, so sampling without a charge is fine here.
func (s *Session) Primitive(src noise.Source, eps float64) float64 {
	return noise.Laplace(src, 1/eps)
}
