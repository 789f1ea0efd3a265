package main

// One benchmark run of one workload: a few rounds, each a fresh daemon
// brought up and set up (timed as setup_s) followed by a share of the
// measurement window. Rounds give setup_s several samples, keep serve-fresh
// daemons fresh, and spread a run over several daemon lifetimes so one
// unlucky start does not decide a metric.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// env is where a run finds the program under test and keeps its files.
type env struct {
	root     string // checkout root
	out      string // bench/out: logs, data dirs, results, traces
	scand    string // built daemon binary
	workload string
	launches int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records what the numbers were measured on, so a noisy or different
// machine is visible in the result file.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"load_average"`
}

func hostInfo() host {
	load, _ := os.ReadFile("/proc/loadavg") // absent off Linux: reported empty
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(load))}
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is one run's full report.
type runResult struct {
	resultLine
	detail
}

// detail is what result.json keeps beyond the contract line.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Samples    int                `json:"latency_samples"`
	Tail       string             `json:"tail,omitempty"` // e.g. "p99=12.3ms"
	SetupS     []float64          `json:"setup_s_rounds"`
	RunLogs    []int              `json:"kb_run_logs_rounds"` // KB size when each round ended
	FamilyP50  map[string]float64 `json:"family_p50_ms"`
	OpsByKind  map[string]int     `json:"ops_by_family"`
	Failures   []string           `json:"failures,omitempty"`
	FailedRate float64            `json:"failed_share"`
	Digests    map[string]string  `json:"result_digests"`
	Host       host               `json:"host"`
}

// launcher brings up one scand for a round.
type launcher func(ctx context.Context, spec daemonSpec) (*target, error)

// runRounds drives the workload through its rounds and returns the tally
// and the per-round set-up times. after, when non-nil, sees each round's
// daemon once its timed phase is over, before it stops.
func runRounds(ctx context.Context, w *workload, seed int64, seconds float64, sz sizes, launch launcher,
	after func(tg *target, in *inputs, t *tally)) (*tally, []float64, error) {
	in, err := w.prepare(seed, sz)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	t := newTally()
	var setups []float64
	var n atomic.Int64
	window := time.Duration(seconds / float64(w.rounds) * float64(time.Second))
	for r := 0; r < w.rounds; r++ {
		start := time.Now()
		tg, err := launch(ctx, w.daemon)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		if err := w.setup(ctx, t, tg, in, sz); err != nil {
			tg.stop()
			return nil, nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		t.phase(ctx, tg, w.clients, window, func(i int) op { return w.op(in, sz, i) }, &n)
		if st, err := tg.client.Status(ctx); err == nil {
			t.runLogs = append(t.runLogs, st.RunLogs)
		}
		if after != nil {
			after(tg, in, t)
		}
		tg.stop()
		t.endRound()
	}
	return t, setups, nil
}

// typicalLatency is job_p50_ms: the median over the mix's families of each
// family's median submit → terminal latency. A mix's pooled median falls
// between the fast and the slow families, in the fast ones' tail, and
// moves with every shift in their shares; each family's own median is the
// centre of one mode and holds still. With one family the two coincide.
func (t *tally) typicalLatency() float64 {
	var medians []float64
	for _, d := range t.byKind {
		medians = append(medians, median(millis(d)))
	}
	return median(medians)
}

// endToEnd computes the end-to-end metrics of a finished run. Each is a
// median — over jobs, over the rounds' timed phases, over upload calls,
// over set-ups — so one disturbed round or call does not move it.
func endToEnd(t *tally, setups []float64) map[string]metric {
	m := map[string]metric{
		"job_p50_ms": {t.typicalLatency(), "ms"},
		"setup_s":    {median(setups), "s"},
	}
	m["jobs_per_s"] = metric{median(t.rates), "1/s"}
	m["ingest_mb_per_s"] = metric{median(t.upRates), "MB/s"}
	return m
}

// report assembles the run's result from its tally.
func report(w *workload, seed int64, seconds float64, traced bool, t *tally, setups []float64, metrics map[string]metric) *runResult {
	lat := millis(t.latencies)
	res := &runResult{
		resultLine: resultLine{Correct: t.failed == 0 && len(lat) > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics},
		detail: detail{
			Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Samples: len(lat),
			SetupS: setups, RunLogs: t.runLogs, FamilyP50: map[string]float64{}, OpsByKind: map[string]int{},
			Failures: t.failures, Digests: t.digests, Host: hostInfo(),
		},
	}
	if t.attempted > 0 {
		res.FailedRate = float64(t.failed) / float64(t.attempted)
	}
	if q, ok := highestPercentile(len(lat)); ok {
		res.Tail = fmt.Sprintf("p%g=%.3fms", q*100, percentile(lat, q))
	}
	for kind, d := range t.byKind {
		res.FamilyP50[kind] = median(millis(d))
		res.OpsByKind[kind] = len(d)
	}
	return res
}

// print writes every metric by name with its unit, then the counts.
func (r *runResult) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed (failed_share %.4f), %d latency samples %s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.FailedRate, r.Samples, r.Tail)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for kind, p50 := range r.FamilyP50 {
		fmt.Printf("  family %-12s p50 %10.3f ms over %d ops\n", kind, p50, r.OpsByKind[kind])
	}
	fmt.Printf("  setup_s rounds %.3f, KB run logs at round end %v\n", r.SetupS, r.RunLogs)
	for _, f := range r.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
}
