// Command scansim regenerates the paper's evaluation artifacts: Figure 4,
// Figure 5, the Table I parameter sweep, the allocation-policy comparison,
// and the Table II profiling regression.
//
// Usage:
//
//	scansim -exp fig4   [-simtime 10000] [-repeats 10]
//	scansim -exp fig5   [-simtime 10000] [-repeats 10]
//	scansim -exp alloc  [-simtime 10000] [-repeats 10]
//	scansim -exp sweep  [-simtime 2000]  [-repeats 3]
//	scansim -exp ablate [-simtime 2000]  [-repeats 5]
//	scansim -exp profile
//
// The defaults reproduce the paper's settings; smaller -simtime values
// trade precision for speed (shapes stabilise from roughly 2000 TU).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"scan/internal/experiment"
	"scan/internal/gatk"
	"scan/internal/knowledge"
)

func main() {
	var (
		exp     = flag.String("exp", "fig4", "experiment: fig4, fig5, alloc, sweep, profile, ablate")
		simTime = flag.Float64("simtime", 0, "arrival window in TU (0 = experiment default)")
		repeats = flag.Int("repeats", 0, "repetitions per point (0 = experiment default)")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		cores   = flag.Int("cores", experiment.CalibratedPrivateCores, "private tier cores")
	)
	flag.Parse()

	base := experiment.DefaultConfig()
	base.Seed = *seed
	base.PrivateCores = *cores
	if *simTime > 0 {
		base.SimTime = *simTime
	}

	start := time.Now()
	switch *exp {
	case "fig4":
		n := defaultInt(*repeats, 10)
		experiment.WriteFigure4(os.Stdout, experiment.Figure4(base, n))
	case "fig5":
		n := defaultInt(*repeats, 10)
		experiment.WriteFigure5(os.Stdout, experiment.Figure5(base, n))
	case "alloc":
		n := defaultInt(*repeats, 10)
		experiment.WriteAllocation(os.Stdout, experiment.CompareAllocation(base, n))
	case "ablate":
		if *simTime <= 0 {
			base.SimTime = 2000
		}
		n := defaultInt(*repeats, 5)
		experiment.WriteAblation(os.Stdout, experiment.AblateShardSize(base, n))
		experiment.WriteAblation(os.Stdout, experiment.AblatePredictiveMargin(base, n))
		experiment.WriteAblation(os.Stdout, experiment.AblateIdleWindow(base, n))
	case "sweep":
		if *simTime <= 0 {
			base.SimTime = 2000 // the full grid at 10k TU runs for hours
		}
		pts := experiment.Sweep(base, experiment.SweepOptions{Repeats: defaultInt(*repeats, 3)})
		experiment.WriteSweep(os.Stdout, pts)
	case "profile":
		runProfile(*seed)
	default:
		fmt.Fprintf(os.Stderr, "scansim: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "scansim: %s done in %v\n", *exp, time.Since(start).Round(time.Millisecond))
}

func defaultInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// runProfile reproduces Table II's derivation: synthesize profiling runs
// from the ground-truth stage models (with measurement noise), log them to
// a knowledge base, regress, and print recovered vs. paper coefficients.
func runProfile(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	kb := knowledge.New()
	stages := gatk.DefaultStages()
	for si, model := range stages {
		for _, d := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9} {
			logRun(kb, si, d, 1, model.SerialTime(d)*(1+rng.NormFloat64()*0.01))
		}
		for _, th := range []int{1, 2, 4, 8, 16} {
			logRun(kb, si, 5, th, model.Time(th, 5)*(1+rng.NormFloat64()*0.01))
		}
	}
	fmt.Println("Table II recovery: per-stage scalability factors via regression over profiling logs")
	fmt.Printf("%-24s %8s %8s %8s %10s %10s %10s\n",
		"stage", "a", "b", "c", "fit a", "fit b", "fit c")
	for si, want := range stages {
		got, err := kb.FitStageModel("GATK", si)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scansim: stage %d: %v\n", si, err)
			os.Exit(1)
		}
		fmt.Printf("%-24s %8.2f %8.2f %8.2f %10.3f %10.3f %10.3f\n",
			want.Name, want.A, want.B, want.C, got.A, got.B, got.C)
	}
}

func logRun(kb *knowledge.Base, stage int, d float64, threads int, t float64) {
	if err := kb.LogRun(knowledge.RunLog{
		App: "GATK", Stage: stage, InputSize: d, Threads: threads, ETime: t,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "scansim: %v\n", err)
		os.Exit(1)
	}
}
