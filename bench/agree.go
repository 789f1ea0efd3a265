package main

// `bench agree`: two sets of end-to-end runs of the same code, the second
// with another seed, must agree within the bounds BENCHMARK.json fixes —
// the benchmark's check on itself before any change is judged by it.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// agreement is one metric of one workload across the two sets.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is by how much of the first value the second is worse, in the
	// metric's own direction (negative: better).
	Worse float64 `json:"worse_by"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"within_bound"`
}

// agreeFile is bench/out/agree.json.
type agreeFile struct {
	Seeds   [2]int64        `json:"seeds"`
	Sets    [2][]*runResult `json:"sets"`
	Metrics []agreement     `json:"metrics"`
	Agree   bool            `json:"agree"`
	Claim   *string         `json:"claim"`
}

func (e *env) agree(ctx context.Context, spec *benchSpec, seed int64, seconds float64) error {
	out := agreeFile{Seeds: [2]int64{seed, seed + 1}, Agree: true}
	for set, s := range out.Seeds {
		for _, w := range workloads() {
			res, err := e.runOne(ctx, w, s, seconds, false)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, w.name, err)
			}
			res.print()
			if !res.Correct {
				out.Agree = false
			}
			out.Sets[set] = append(out.Sets[set], res)
		}
		if err := crossCheck(out.Sets[set]); err != nil {
			return err
		}
	}
	for i, first := range out.Sets[0] {
		second := out.Sets[1][i]
		for _, m := range spec.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			ok := math.Abs(worse) <= m.Bound // a set far better than the other is noise just the same
			out.Agree = out.Agree && ok
			out.Metrics = append(out.Metrics, agreement{first.Workload, m.Name, m.Unit, a, b, worse, m.Bound, ok})
			fmt.Printf("agree %-15s %-16s %12.4f -> %12.4f %-5s worse by %+.3f (bound %.2f) ok=%v\n",
				first.Workload, m.Name, a, b, m.Unit, worse, m.Bound, ok)
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, "agree.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !out.Agree {
		return fmt.Errorf("the two sets disagree beyond the benchmark's bounds (see %s)", path)
	}
	return nil
}
