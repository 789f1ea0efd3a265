// Benchmarks regenerating each evaluation artifact of the paper: Table I's
// sweep, Table II's profile fit, Figures 4 and 5, the allocation comparison
// and the real pipeline. Each benchmark runs a reduced-fidelity
// version of the corresponding experiment per iteration — the full-fidelity
// versions are produced by cmd/scansim. Benchmark *output* is the paper's
// artifact shape; the reported ns/op measures the harness itself.
package scan_test

import (
	"context"
	"math/rand"
	"testing"

	"scan/internal/core"
	"scan/internal/experiment"
	"scan/internal/gatk"
	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/scheduler"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// benchConfig is the reduced-fidelity session used inside benchmarks.
func benchConfig(seed int64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Seed = seed
	cfg.SimTime = 300
	return cfg
}

// BenchmarkTableISweep runs one cell of the Table I grid per iteration,
// cycling through the full cross-product (experiment T1).
func BenchmarkTableISweep(b *testing.B) {
	allocs := []scheduler.AllocationPolicy{
		scheduler.BestConstant, scheduler.Greedy,
		scheduler.LongTerm, scheduler.LongTermAdaptive,
	}
	scalers := []scheduler.ScalingPolicy{
		scheduler.AlwaysScale, scheduler.NeverScale, scheduler.PredictiveScale,
	}
	costs := []float64{20, 50, 80, 110}
	intervals := experiment.ArrivalIntervals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		cfg.Allocation = allocs[i%len(allocs)]
		cfg.Scaling = scalers[i%len(scalers)]
		cfg.PublicPrice = costs[i%len(costs)]
		cfg.MeanInterArrival = intervals[i%len(intervals)]
		r := experiment.Run(cfg)
		if r.Metrics.JobsCompleted == 0 {
			b.Fatal("no jobs completed")
		}
	}
}

// BenchmarkTableIIProfileFit regenerates Table II: synthesize profiling
// logs from the ground-truth stage models and recover (a, b, c) by
// regression (experiment T2).
func BenchmarkTableIIProfileFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		kb := knowledge.New()
		stages := gatk.DefaultStages()
		for si, model := range stages {
			for _, d := range []float64{1, 3, 5, 7, 9} {
				if err := kb.LogRun(knowledge.RunLog{
					App: "GATK", Stage: si, InputSize: d, Threads: 1,
					ETime: model.SerialTime(d) * (1 + rng.NormFloat64()*0.01),
				}); err != nil {
					b.Fatal(err)
				}
			}
			for _, th := range []int{1, 2, 4, 8, 16} {
				if err := kb.LogRun(knowledge.RunLog{
					App: "GATK", Stage: si, InputSize: 5, Threads: th,
					ETime: model.Time(th, 5) * (1 + rng.NormFloat64()*0.01),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		for si := range stages {
			if _, err := kb.FitStageModel("GATK", si); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4 regenerates one Figure 4 point set (three scaling
// policies at one arrival interval) per iteration (experiment F4).
func BenchmarkFigure4(b *testing.B) {
	intervals := experiment.ArrivalIntervals()
	for i := 0; i < b.N; i++ {
		base := benchConfig(int64(i))
		base.MeanInterArrival = intervals[i%len(intervals)]
		for _, sc := range []scheduler.ScalingPolicy{
			scheduler.PredictiveScale, scheduler.AlwaysScale, scheduler.NeverScale,
		} {
			cfg := base
			cfg.Scaling = sc
			if r := experiment.Run(cfg); r.Metrics.JobsCompleted == 0 {
				b.Fatal("no jobs completed")
			}
		}
	}
}

// BenchmarkFigure5 regenerates one Figure 5 point (one fixed plan under
// dynamic scaling + heterogeneous workers) per iteration (experiments F5
// and C3).
func BenchmarkFigure5(b *testing.B) {
	plans := experiment.Figure5Plans(gatk.NewPipeline())
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		cfg.Heterogeneous = true
		plan := plans[i%len(plans)]
		cfg.FixedPlan = &plan
		r := experiment.Run(cfg)
		if r.Metrics.TotalCost <= 0 {
			b.Fatal("no cost accrued")
		}
	}
}

// BenchmarkAllocationComparison runs the four allocation policies at one
// interval per iteration (experiment C2).
func BenchmarkAllocationComparison(b *testing.B) {
	intervals := experiment.ArrivalIntervals()
	for i := 0; i < b.N; i++ {
		base := benchConfig(int64(i))
		base.MeanInterArrival = intervals[i%len(intervals)]
		for _, al := range []scheduler.AllocationPolicy{
			scheduler.BestConstant, scheduler.Greedy,
			scheduler.LongTerm, scheduler.LongTermAdaptive,
		} {
			cfg := base
			cfg.Allocation = al
			if r := experiment.Run(cfg); r.Metrics.JobsCompleted == 0 {
				b.Fatal("no jobs completed")
			}
		}
	}
}

// BenchmarkRealPipeline measures the non-simulated execution surface: the
// sharded align→call pipeline on synthetic data (the platform the paper's
// prototype exposes over RPC).
func BenchmarkRealPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := genomics.GenerateReference(rng, "chr1", 20000)
	mutated, _ := genomics.PlantSNVs(rng, ref, 10)
	reads, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: 4000, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		b.Fatal(err)
	}
	platform := core.NewPlatform(core.Options{Workers: 4})
	ds := workflow.NewFASTQDataset(ref, reads)
	opts := workflow.RunOptions{
		Caller:       variant.Config{MinDepth: 8, MinAltFraction: 0.6},
		ShardRecords: 500,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.RunWorkflow(context.Background(), core.VariantDetectionWorkflow, ds, opts); err != nil {
			b.Fatal(err)
		}
	}
}
