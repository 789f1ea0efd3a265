package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want 5", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		some bool
	}{{50, 0, false}, {100, 0.90, true}, {199, 0.90, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		q, ok := highestPercentile(c.n)
		if ok != c.some || q != c.q {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.some)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Start: 0, End: 100},              // root
		{ID: 2, Parent: 1, Start: 10, End: 40},   // child
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps its sibling: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out: only 90..100 counts
		{ID: 5, Parent: 2, Start: 10, End: 40},   // covers its parent whole
		{ID: 6, Parent: 3, Start: 35, End: 45},   // parallel shards under one stage
		{ID: 7, Parent: 3, Start: 35, End: 45},   // ...count once
		{ID: 8, Parent: 99, Start: 0, End: 1000}, // a stranger's child touches nobody
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 0, 3: 20, 4: 30, 5: 30, 6: 10, 7: 10, 8: 1000}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	gens := map[string]func(seed int64) (*dataset, error){
		"fastq":    func(s int64) (*dataset, error) { return genFASTQ(s, 4000, 300, 3) },
		"mgf":      func(s int64) (*dataset, error) { return genMGF(s, 5, 60) },
		"tiff":     func(s int64) (*dataset, error) { return genFrames(s, 1, 64, 2) },
		"features": func(s int64) (*dataset, error) { return genFeatures(s, 60, 3) },
	}
	for name, gen := range gens {
		a, errA := gen(7)
		b, errB := gen(7)
		c, errC := gen(8)
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("%s: %v %v %v", name, errA, errB, errC)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: another seed gave the same input", name)
		}
		if a.units <= 0 || a.truth.records <= 0 {
			t.Errorf("%s: no work units or records: %+v", name, a)
		}
	}
}

// testEnv finds the checkout and keeps the run's files in a temp dir.
func testEnv(t *testing.T) (*env, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, out: t.TempDir()}, spec
}

func TestSpecMatchesCode(t *testing.T) {
	_, spec := testEnv(t)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
	}
}

// TestSmoke runs all six workloads in-process at about 1/50 size, end to
// end and traced, and holds the output to BENCHMARK.json: every declared
// name present with its unit, every op correct, end-to-end metrics non-zero.
func TestSmoke(t *testing.T) {
	e, spec := testEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sz := fullSizes.scaled(0.02)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			tl, setups, err := runRounds(ctx, w, 1, 0.6, sz, e.launchInProcess(nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			plain := report(w, 1, 0.6, false, tl, setups, endToEnd(tl, setups))
			traced, err := e.runTraced(ctx, w, 1, 0.6, sz)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkNames(spec, []*runResult{plain, traced}); err != nil {
				t.Error(err)
			}
			for _, r := range []*runResult{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", r.Traced, r.Correct, r.Attempted, r.Failed, r.Failures)
				}
			}
			for name, m := range plain.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %v", name, m.Value)
				}
			}
			if cov := traced.Metrics["trace.coverage"].Value; cov < 0.85 {
				t.Errorf("trace.coverage = %v, want >= 0.85", cov)
			}
			if traced.Metrics["trace.jobs"].Value < 1 {
				t.Error("the traced run tied no job to its spans")
			}
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
