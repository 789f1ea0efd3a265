package stats

import "errors"

// ErrInsufficientData is returned by the fitting routines when the sample is
// too small or degenerate to determine the model coefficients.
var ErrInsufficientData = errors.New("stats: insufficient or degenerate data for fit")

// LinearFit holds the least-squares line y = Slope*x + Intercept together
// with its coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 {
	return f.Slope*x + f.Intercept
}

// FitLine computes the ordinary least-squares line through (xs[i], ys[i]).
// It is used to recover the a_i (slope) and b_i (intercept) coefficients of
// the paper's per-stage execution model E_i(d) = a_i*d + b_i from profiling
// observations.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	_ = n
	if sxx == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := range xs {
			e := ys[i] - (slope*xs[i] + intercept)
			ssRes += e * e
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// FitAmdahl estimates the parallel fraction c of the paper's threaded
// execution model
//
//	T(t) = c*E/t + (1-c)*E
//
// from observations (threads[i], times[i]). Substituting α = (1-c)E and
// β = cE turns the model into T = α + β·(1/t), a plain least-squares line in
// 1/t, which is solved exactly even when no single-thread observation is
// present. The recovered c = β/(α+β) is clamped to [0, 1].
func FitAmdahl(threads []int, times []float64) (float64, error) {
	if len(threads) != len(times) || len(threads) < 2 {
		return 0, ErrInsufficientData
	}
	inv := make([]float64, len(threads))
	for i, t := range threads {
		if t < 1 {
			return 0, ErrInsufficientData
		}
		inv[i] = 1 / float64(t)
	}
	fit, err := FitLine(inv, times)
	if err != nil {
		return 0, err
	}
	alpha, beta := fit.Intercept, fit.Slope
	e := alpha + beta
	if e <= 0 {
		return 0, ErrInsufficientData
	}
	c := beta / e
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c, nil
}
