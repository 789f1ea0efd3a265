package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.0
	}
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 2.5, 1e-12) || !almostEq(f.Intercept, -1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almostEq(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if !almostEq(f.Predict(10), 24, 1e-12) {
		t.Fatalf("Predict(10) = %v", f.Predict(10))
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := r.Float64() * 20
		xs = append(xs, x)
		ys = append(ys, 0.35*x+5.38+r.NormFloat64()*0.05)
	}
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 0.35, 0.01) || !almostEq(f.Intercept, 5.38, 0.05) {
		t.Fatalf("noisy fit off: %+v", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v too low", f.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for constant x")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func amdahl(e, c float64, t int) float64 {
	return c*e/float64(t) + (1-c)*e
}

func TestFitAmdahlExact(t *testing.T) {
	for _, c := range []float64{0.02, 0.25, 0.69, 0.89, 1.0} {
		threads := []int{1, 2, 4, 8, 16}
		times := make([]float64, len(threads))
		for i, th := range threads {
			times[i] = amdahl(100, c, th)
		}
		got, err := FitAmdahl(threads, times)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c, 1e-9) {
			t.Fatalf("c = %v, want %v", got, c)
		}
	}
}

func TestFitAmdahlNoSingleThreadSample(t *testing.T) {
	threads := []int{2, 4, 8}
	times := make([]float64, len(threads))
	for i, th := range threads {
		times[i] = amdahl(50, 0.8, th)
	}
	got, err := FitAmdahl(threads, times)
	if err != nil {
		t.Fatal(err)
	}
	// The α+β/t parametrisation recovers c exactly even without t=1.
	if !almostEq(got, 0.8, 1e-9) {
		t.Fatalf("c = %v, want 0.8", got)
	}
}

func TestFitAmdahlClamps(t *testing.T) {
	// Superlinear speedup observations must clamp to c = 1.
	threads := []int{1, 2, 4}
	times := []float64{100, 40, 15}
	got, err := FitAmdahl(threads, times)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("c = %v, want clamp to 1", got)
	}
	// Slowdown with threads clamps to 0.
	times = []float64{100, 120, 150}
	got, err = FitAmdahl(threads, times)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("c = %v, want clamp to 0", got)
	}
}

func TestFitAmdahlErrors(t *testing.T) {
	if _, err := FitAmdahl([]int{1}, []float64{5}); err == nil {
		t.Fatal("expected error: too few points")
	}
	if _, err := FitAmdahl([]int{1, 0}, []float64{5, 5}); err == nil {
		t.Fatal("expected error: zero thread count")
	}
	if _, err := FitAmdahl([]int{1, 1}, []float64{5, 5}); err == nil {
		t.Fatal("expected error: no multi-thread sample")
	}
}

// Property: FitAmdahl recovers c from exact model data for any c in [0,1]
// and E > 0.
func TestFitAmdahlProperty(t *testing.T) {
	f := func(cRaw uint8, eRaw uint16) bool {
		c := float64(cRaw) / 255
		e := 1 + float64(eRaw)
		threads := []int{1, 2, 3, 4, 6, 8, 12, 16}
		times := make([]float64, len(threads))
		for i, th := range threads {
			times[i] = amdahl(e, c, th)
		}
		got, err := FitAmdahl(threads, times)
		return err == nil && almostEq(got, c, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionMeans(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		name   string
		sample func(*rand.Rand) float64
		mean   float64
		tol    float64
	}{
		// Truncation at 0.5 shifts the mean of N(3, 2²) up to ≈ 3.41.
		{"TruncNormal", TruncNormal{Mu: 3, Sigma: 2, Lo: 0.5, Hi: 100}.Sample, 3.41, 0.1},
		{"Exponential", Exponential{MeanVal: 2.5}.Sample, 2.5, 0.15},
	}
	for _, c := range cases {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += c.sample(r)
		}
		got := sum / n
		if math.Abs(got-c.mean) > c.tol+0.05 {
			t.Errorf("%s: sample mean %v, want %v", c.name, got, c.mean)
		}
	}
}

func TestTruncNormalRespectsBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := TruncNormal{Mu: 0, Sigma: 10, Lo: -1, Hi: 1}
	for i := 0; i < 5000; i++ {
		x := d.Sample(r)
		if x < -1 || x > 1 {
			t.Fatalf("sample %v outside bounds", x)
		}
	}
}
