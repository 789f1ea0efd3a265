// Command bench is SCAN's benchmark: it builds scand from the checkout,
// drives it as a subprocess over HTTP from one load-generator process, and
// reports end-to-end metrics (tracing off) or per-layer metrics (a traced,
// in-process replay) for six named workloads. See README.md.
//
// Usage (from the checkout root, through bench/run.sh, or `go run .` here):
//
//	bench [run]  [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//	bench trace  [--workload NAME|all] [--seed N] [--seconds S]
//	bench agree  [--seed N] [--seconds S]
//
// With one workload the last line of standard output is the result object
// BENCHMARK.json's contract prescribes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	handleSignals()
	err := run(os.Args[1:])
	stopAllChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cmd := "run"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench "+cmd, flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measurement window per run (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1: traced in-process replay reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	selected := workloads()
	if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else if *name != "all" {
		return fmt.Errorf("unknown workload %q", *name)
	}
	switch cmd {
	case "run", "agree":
	case "trace":
		*trace = 1
	default:
		return fmt.Errorf("unknown command %q (want run, trace or agree)", cmd)
	}
	if *trace == 0 {
		if err := e.buildScand(ctx); err != nil {
			return err
		}
	}
	if cmd == "agree" {
		return e.agree(ctx, spec, *seed, *seconds)
	}
	var results []*runResult
	for _, w := range selected {
		res, err := e.runOne(ctx, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print()
		results = append(results, res)
	}
	if err := checkNames(spec, results); err != nil {
		return err
	}
	if len(results) == 1 {
		// The contract's result line, last on standard output.
		line, err := json.Marshal(results[0].resultLine)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	file := "result.json"
	if *trace == 1 {
		file = "result-trace.json"
	}
	return writeSummary(filepath.Join(e.out, file), results)
}

// runOne measures one workload: end to end against a scand subprocess, or
// traced in-process.
func (e *env) runOne(ctx context.Context, w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	e.workload = w.name
	if traced {
		return e.runTraced(ctx, w, seed, seconds, fullSizes)
	}
	t, setups, err := runRounds(ctx, w, seed, seconds, fullSizes, e.launchDaemon, nil)
	if err != nil {
		return nil, err
	}
	return report(w, seed, seconds, false, t, setups, endToEnd(t, setups)), nil
}

// summary is result.json: every workload's report, and no claim — this
// benchmark measures, it does not compare.
type summary struct {
	Results []*runResult `json:"results"`
	Claim   *string      `json:"claim"`
}

func writeSummary(path string, results []*runResult) error {
	if err := crossCheck(results); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(summary{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// crossCheck holds fleet-genomic to batch-genomic's answers: the same
// seed gives both the same input, so the result digests must be equal.
func crossCheck(results []*runResult) error {
	var batch, fleet *runResult
	for _, r := range results {
		switch r.Workload {
		case "batch-genomic":
			batch = r
		case "fleet-genomic":
			fleet = r
		}
	}
	if batch != nil && fleet != nil && batch.Seed == fleet.Seed &&
		batch.Digests["genomic"] != fleet.Digests["genomic"] {
		return fmt.Errorf("fleet-genomic result %q differs from batch-genomic's %q",
			fleet.Digests["genomic"], batch.Digests["genomic"])
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads back: the
// names it must print and the bounds agree checks.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkNames fails a run whose metrics are not exactly the ones
// BENCHMARK.json declares for its mode, with the declared units.
func checkNames(spec *benchSpec, results []*runResult) error {
	for _, r := range results {
		want := spec.EndToEnd
		if r.Traced {
			want = spec.PerLayer
		}
		if len(r.Metrics) != len(want) {
			return fmt.Errorf("%s reports %d metrics, BENCHMARK.json declares %d", r.Workload, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				return fmt.Errorf("%s: metric %s (%s) missing or in the wrong unit", r.Workload, m.Name, m.Unit)
			}
		}
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json and the scan module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errB := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, errM := os.Stat(filepath.Join(dir, "cmd", "scand", "main.go"))
		if errB == nil && errM == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (BENCHMARK.json beside cmd/scand) above the working directory")
		}
		dir = parent
	}
}

// buildScand builds the daemon from the checkout's source into
// .bench_build/, with the go command's environment as run.sh set it.
func (e *env) buildScand(ctx context.Context) error {
	e.scand = filepath.Join(e.root, ".bench_build", "scand")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.scand, "./cmd/scand")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building scand: %v\n%s", err, out)
	}
	return nil
}
