package experiment

import (
	"fmt"
	"io"

	"scan/internal/stats"
)

// This file implements the ablation studies over the reproduction's own
// design choices: the Data Broker's shard size, the predictive scaler's
// hire margin, and the warm-pool idle windows. Each
// sweep varies exactly one knob around the calibrated default and reports
// profit per run, making the sensitivity of the headline results visible.

// AblationPoint is one knob setting's outcome.
type AblationPoint struct {
	Knob   string
	Value  float64
	Profit stats.Summary
	Ratio  stats.Summary
}

// AblateShardSize sweeps the knowledge-base chunk size around the paper's
// 2-unit advice.
func AblateShardSize(base Config, repeats int) []AblationPoint {
	return ablate(base, repeats, "shard-size",
		[]float64{0.5, 1, 2, 3, 5, 10},
		func(c *Config, v float64) { c.ShardSize = v })
}

// AblatePredictiveMargin sweeps the delay-cost over-counting compensation
// of the predictive scaler.
func AblatePredictiveMargin(base Config, repeats int) []AblationPoint {
	return ablate(base, repeats, "predictive-margin",
		[]float64{1, 2, 3, 5, 8},
		func(c *Config, v float64) { c.PredictiveMargin = v })
}

// AblateIdleWindow sweeps the private warm-pool retention window.
func AblateIdleWindow(base Config, repeats int) []AblationPoint {
	return ablate(base, repeats, "idle-private",
		[]float64{0.25, 0.5, 1, 1.5, 3, 6},
		func(c *Config, v float64) { c.IdleReleasePrivate = v })
}

func ablate(base Config, repeats int, knob string, values []float64, apply func(*Config, float64)) []AblationPoint {
	if repeats <= 0 {
		repeats = 3
	}
	out := make([]AblationPoint, 0, len(values))
	for _, v := range values {
		cfg := base
		apply(&cfg, v)
		rs := Repeat(cfg, repeats)
		out = append(out, AblationPoint{
			Knob:   knob,
			Value:  v,
			Profit: Summarize(rs, ProfitPerJob),
			Ratio:  Summarize(rs, RewardToCost),
		})
	}
	return out
}

// WriteAblation renders ablation sweeps as an aligned table.
func WriteAblation(w io.Writer, points []AblationPoint) {
	fmt.Fprintln(w, "Ablation: design-choice sensitivity (profit per run, reward-to-cost)")
	fmt.Fprintf(w, "%-20s %8s %12s %10s %8s\n", "knob", "value", "profit/run", "stddev", "ratio")
	for _, p := range points {
		fmt.Fprintf(w, "%-20s %8.2f %12.1f %10.1f %8.2f\n",
			p.Knob, p.Value, p.Profit.Mean, p.Profit.Std, p.Ratio.Mean)
	}
}
