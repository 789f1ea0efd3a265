package stats

import "math/rand"

// TruncNormal is a Gaussian clipped to [Lo, Hi]. It is used for the paper's
// "mean jobs per arrival = 3, variance = 2" style parameters, which must
// stay positive. Sampling rejects up to 16 draws before clamping, keeping
// the distribution close to a true truncated normal without risking an
// unbounded loop.
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// Sample draws from the truncated distribution.
func (t TruncNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 16; i++ {
		x := t.Mu + t.Sigma*r.NormFloat64()
		if x >= t.Lo && x <= t.Hi {
			return x
		}
	}
	x := t.Mu
	if x < t.Lo {
		x = t.Lo
	}
	if x > t.Hi {
		x = t.Hi
	}
	return x
}

// Exponential has the given mean (rate 1/Mean). Inter-arrival gaps in the
// workload generator are exponential, making arrivals a Poisson process as
// in the paper's "mean job inter-arrival interval" parameter.
type Exponential struct {
	MeanVal float64
}

// Sample draws from the exponential distribution.
func (e Exponential) Sample(r *rand.Rand) float64 {
	return r.ExpFloat64() * e.MeanVal
}
