// Package experiment drives the paper's simulation study: it generates the
// Table III workload, runs the scheduler on the two-tier cloud across the
// Table I parameter grid, and regenerates Figure 4, Figure 5 and the full
// sweep with repeated runs and standard deviations.
package experiment

import (
	"math"

	"scan/internal/cloud"
	"scan/internal/gatk"
	"scan/internal/reward"
	"scan/internal/scheduler"
	"scan/internal/sim"
	"scan/internal/stats"
)

// Config is one simulation session's full parameter set. Defaults mirror
// Table III; Table I's variable parameters are the fields callers sweep.
type Config struct {
	Seed int64

	// SimTime is the arrival window in TU (Table III: 10 000). After it
	// closes, the run drains in-flight jobs so rewards and costs are fully
	// accounted for under every policy.
	SimTime float64

	// MeanInterArrival is the mean gap between arrival events in TU
	// (Table I: 2.0 … 3.0). Gaps are exponential, making arrivals Poisson.
	MeanInterArrival float64
	// JobsPerArrivalMean/Var shape the batch size per arrival event
	// (Table III: mean 3, variance 2; truncated at 1).
	JobsPerArrivalMean float64
	JobsPerArrivalVar  float64
	// JobSizeMean/Var shape the per-job input size (Table III: mean 5,
	// variance 1; truncated at 0.5).
	JobSizeMean float64
	JobSizeVar  float64

	// PrivateCores is the private-tier capacity. The paper's institution
	// owns 624 cores; the experiment default is the 128-core partition
	// calibration (see EXPERIMENTS.md) so that private-tier saturation
	// crosses over inside the swept arrival range, reproducing the
	// paper's "busy at 2.0 TU / quiet at 3.0 TU" description.
	PrivateCores int
	// PrivatePrice is the private-tier core price (Table III: 5 CU/TU).
	PrivatePrice float64
	// PublicPrice is the public-tier core price (Table I: 20/50/80/110).
	PublicPrice float64
	// Startup is the worker boot/reconfigure penalty in TU (30 s = 0.5).
	Startup float64

	Scheme     reward.Scheme
	Params     reward.Params
	Scaling    scheduler.ScalingPolicy
	Allocation scheduler.AllocationPolicy

	Pipeline      gatk.Pipeline
	ShardSize     float64
	Heterogeneous bool
	FixedPlan     *gatk.Plan

	// Scheduler tuning knobs, exposed for the ablation studies; zero
	// values use the scheduler defaults.
	IdleReleasePrivate float64
	PredictiveMargin   float64
}

// PaperPrivateCores is the paper's stated private-tier size.
const PaperPrivateCores = 624

// CalibratedPrivateCores is the partition used by the experiments (see the
// PrivateCores field).
const CalibratedPrivateCores = 128

// DefaultConfig returns the Table III baseline: time-based reward, public
// price 50, predictive scaling, best-constant allocation, mid-range
// arrival interval.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		SimTime:            10000,
		MeanInterArrival:   2.5,
		JobsPerArrivalMean: 3,
		JobsPerArrivalVar:  2,
		JobSizeMean:        5,
		JobSizeVar:         1,
		PrivateCores:       CalibratedPrivateCores,
		PrivatePrice:       5,
		PublicPrice:        50,
		Startup:            0.5,
		Scheme:             reward.TimeBased,
		Params:             reward.DefaultParams(),
		Scaling:            scheduler.PredictiveScale,
		Allocation:         scheduler.BestConstant,
		Pipeline:           gatk.NewPipeline(),
		ShardSize:          2,
	}
}

// RunResult is the outcome of one simulation session.
type RunResult struct {
	Config  Config
	Metrics scheduler.Metrics
	// DrainTime is when the last job completed (≥ SimTime).
	DrainTime float64
	// PrivateUtil summarises the private tier's utilisation, sampled once
	// per TU over the arrival window ("the scaling and resource allocation
	// algorithms would experience a wide range of cluster utilisation").
	PrivateUtil stats.Summary
}

// Run executes one session: Poisson batch arrivals over [0, SimTime], then
// a drain phase until every admitted job completes.
func Run(cfg Config) RunResult {
	eng := sim.NewEngine()
	tiers := []cloud.Tier{
		{Name: "private", PricePerCoreTU: cfg.PrivatePrice, Cores: cfg.PrivateCores},
		{Name: "public", PricePerCoreTU: cfg.PublicPrice, Cores: cloud.Unbounded},
	}
	cl := cloud.New(eng, cfg.Startup, tiers...)
	sched, err := scheduler.New(eng, cl, scheduler.Config{
		Pipeline:             cfg.Pipeline,
		RewardScheme:         cfg.Scheme,
		RewardParams:         cfg.Params,
		Scaling:              cfg.Scaling,
		Allocation:           cfg.Allocation,
		ShardSize:            cfg.ShardSize,
		FixedPlan:            cfg.FixedPlan,
		HeterogeneousWorkers: cfg.Heterogeneous,
		IdleReleasePrivate:   cfg.IdleReleasePrivate,
		PredictiveMargin:     cfg.PredictiveMargin,
	})
	if err != nil {
		panic(err) // config errors are programming errors in experiments
	}

	streams := sim.NewStreams(cfg.Seed)
	gapRNG := streams.Stream("arrivals")
	batchRNG := streams.Stream("batches")
	sizeRNG := streams.Stream("sizes")
	gapDist := stats.Exponential{MeanVal: cfg.MeanInterArrival}
	batchDist := stats.TruncNormal{
		Mu: cfg.JobsPerArrivalMean, Sigma: math.Sqrt(cfg.JobsPerArrivalVar),
		Lo: 1, Hi: cfg.JobsPerArrivalMean * 6,
	}
	sizeDist := stats.TruncNormal{
		Mu: cfg.JobSizeMean, Sigma: math.Sqrt(cfg.JobSizeVar),
		Lo: 0.5, Hi: cfg.JobSizeMean * 5,
	}

	var scheduleArrival func()
	scheduleArrival = func() {
		gap := gapDist.Sample(gapRNG)
		at := eng.Now() + gap
		if at > cfg.SimTime {
			return // arrival window closed
		}
		eng.Schedule(at, func() {
			n := int(math.Round(batchDist.Sample(batchRNG)))
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				sched.Submit(sizeDist.Sample(sizeRNG))
			}
			scheduleArrival()
		})
	}
	scheduleArrival()

	// Sample private-tier utilisation once per TU across the arrival
	// window.
	var util stats.Running
	var sampleUtil func()
	sampleUtil = func() {
		util.Add(cl.Utilization(0))
		if eng.Now()+1 <= cfg.SimTime {
			eng.After(1, sampleUtil)
		}
	}
	eng.After(1, sampleUtil)

	// Run to exhaustion: arrivals stop at SimTime, in-flight work drains,
	// idle-release timers fire.
	eng.Run()
	sched.Drain()

	return RunResult{
		Config:      cfg,
		Metrics:     sched.Metrics(),
		DrainTime:   eng.Now(),
		PrivateUtil: util.Summary(),
	}
}

// Repeat runs cfg n times with seeds cfg.Seed, cfg.Seed+1, … and returns
// all results ("All measurements were repeated 10 times").
func Repeat(cfg Config, n int) []RunResult {
	out := make([]RunResult, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		out[i] = Run(c)
	}
	return out
}

// Summarize reduces repeated runs to mean ± std of a metric selector.
func Summarize(results []RunResult, metric func(RunResult) float64) stats.Summary {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = metric(r)
	}
	return stats.Summarize(xs)
}

// ProfitPerJob selects Figure 4's y-axis metric.
func ProfitPerJob(r RunResult) float64 { return r.Metrics.ProfitPerJob() }

// RewardToCost selects Figure 5's y-axis metric.
func RewardToCost(r RunResult) float64 { return r.Metrics.RewardToCost() }
