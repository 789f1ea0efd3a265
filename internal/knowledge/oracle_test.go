package knowledge

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"scan/internal/stats"
)

// TestFitStageModelDeterministicOnTiedSizes pins the Amdahl tie-break: with
// two equally sampled input sizes the fitted c used to follow map iteration
// order. The smaller size wins, every time.
func TestFitStageModelDeterministicOnTiedSizes(t *testing.T) {
	b := New()
	amdahl := func(e, c float64, th int) float64 { return c*e/float64(th) + (1-c)*e }
	for _, th := range []int{1, 2, 4} {
		for _, l := range []RunLog{
			{App: "GATK", Stage: 0, InputSize: 2, Threads: th, ETime: amdahl(8, 0.75, th)},
			{App: "GATK", Stage: 0, InputSize: 8, Threads: th, ETime: amdahl(32, 0.25, th)},
		} {
			if err := b.LogRun(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		m, err := b.FitStageModel("GATK", 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.C-0.75) > 1e-9 {
			t.Fatalf("fit %d: c = %v, want 0.75 (the smaller of the tied sizes)", i, m.C)
		}
	}
}

// closeTo is the property test's tolerance: 1e-9 relative, absolute near 0.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// TestOracleMatchesSPARQLReference draws random logs and random ingestion
// paths — LogRun, LogRunAsync, Import of another base's exported snapshot,
// re-import of its own, close-and-reopen of attached storage with a WAL
// tail — and checks the fold-time accumulators against two references: the
// SPARQL regression (FitStageModel's A and B, wherever it fits) and
// stats.FitLine over a shadow copy of the single-thread runs, which also
// decides exactly when the oracle must refuse.
func TestOracleMatchesSPARQLReference(t *testing.T) {
	apps := []string{"BWA", "GATK", "MaxQuant"}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Per-key ground truth; sizes are multiples of 1/4 so repeated
			// sizes sum exactly and FitLine's degenerate case is exact too.
			draw := func() RunLog {
				l := RunLog{App: apps[rng.Intn(len(apps))], Stage: rng.Intn(3),
					InputSize: float64(1+rng.Intn(24)) / 4, Threads: 1}
				if rng.Intn(3) == 0 {
					l.Threads = 1 << rng.Intn(4)
				}
				if l.App == "MaxQuant" && l.Stage == 2 {
					l.InputSize = 4 // one distinct size: never fittable
				}
				if l.App == "MaxQuant" && l.Stage == 1 && rng.Intn(8) != 0 {
					l.Stage = 0 // a sparsely observed stage
				}
				a, c := 0.5+float64(l.Stage), 1+float64(len(l.App))
				l.ETime = (a*l.InputSize + c) * (1 + 0.05*rng.NormFloat64()) / float64(l.Threads)
				return l
			}
			var shadow []RunLog
			accept := func(b *Base, l RunLog, async bool) {
				t.Helper()
				log := b.LogRun
				if async {
					log = b.LogRunAsync
				}
				if err := log(l); err != nil {
					t.Fatal(err)
				}
				shadow = append(shadow, l)
			}

			dir := t.TempDir()
			b := New()
			attach(t, b, dir, 16)
			for step, steps := 0, 40+rng.Intn(40); step < steps; step++ {
				switch op := rng.Intn(20); {
				case op == 0: // another base's snapshot: colliding run names
					donor := New()
					for i, n := 0, 1+rng.Intn(12); i < n; i++ {
						accept(donor, draw(), i%2 == 0)
					}
					var doc bytes.Buffer
					if err := donor.Export(&doc); err != nil {
						t.Fatal(err)
					}
					if err := b.Import(&doc); err != nil {
						t.Fatal(err)
					}
				case op == 1: // its own snapshot: an idempotent union
					var doc bytes.Buffer
					if err := b.Export(&doc); err != nil {
						t.Fatal(err)
					}
					if err := b.Import(&doc); err != nil {
						t.Fatal(err)
					}
				case op == 2: // restart: snapshot + WAL tail replayed
					b.Flush()
					b.CloseStorage()
					b = New()
					attach(t, b, dir, 16)
				default:
					accept(b, draw(), op%2 == 0)
				}
			}
			// StageRate is advisory too: reading every key leaves a buffered
			// observation buffered.
			accept(b, draw(), true)
			pending := b.PendingLogs()
			for _, app := range apps {
				for stage := 0; stage < 3; stage++ {
					b.StageRate(app, stage)
				}
			}
			if got := b.PendingLogs(); pending == 0 || got != pending {
				t.Fatalf("PendingLogs %d before StageRate reads, %d after: want one or more, untouched", pending, got)
			}
			b.Flush() // the oracle is advisory: exact only once folded
			if got := b.RunCount(); got != len(shadow) {
				t.Fatalf("RunCount = %d, shadow holds %d", got, len(shadow))
			}

			fitted, refused := 0, 0
			for _, app := range apps {
				for stage := 0; stage < 3; stage++ {
					// StageRate against the SPARQL mean(eTime)/mean(size) of the
					// stage's single-thread run logs.
					res, err := b.Query(fmt.Sprintf(`
PREFIX scan: <%s>
SELECT ?run ?size ?time WHERE {
  ?run a scan:RunLog ;
       scan:application scan:%s ;
       scan:stage %d ;
       scan:threads 1 ;
       scan:inputFileSize ?size ;
       scan:eTime ?time .
}`, NS, app, stage))
					if err != nil {
						t.Fatal(err)
					}
					var sumX, sumY float64
					for _, row := range res.Rows {
						x, _ := row["size"].AsFloat()
						y, _ := row["time"].AsFloat()
						sumX, sumY = sumX+x, sumY+y
					}
					rate, ok := b.StageRate(app, stage)
					if ok != (res.Len() > 0) || (ok && !closeTo(rate, sumY/sumX)) {
						t.Fatalf("%s/%d: StageRate (%v, %v), SPARQL %v over %d single-thread runs",
							app, stage, rate, ok, sumY/sumX, res.Len())
					}
					var xs, ys []float64
					for _, l := range shadow {
						if l.App == app && l.Stage == stage && l.Threads == 1 {
							xs = append(xs, l.InputSize)
							ys = append(ys, l.ETime)
						}
					}
					want, wantErr := stats.FitLine(xs, ys)
					// The oracle's line, read back off two predictions.
					at0, err := b.EstimateStageCost(app, stage, 0)
					at1, _ := b.EstimateStageCost(app, stage, 1)
					slope, intercept := at1.Seconds-at0.Seconds, at0.Seconds
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s/%d over %d runs: oracle err %v, FitLine err %v", app, stage, len(xs), err, wantErr)
					}
					if wantErr != nil {
						if !errors.Is(err, stats.ErrInsufficientData) {
							t.Fatalf("%s/%d: err = %v, want ErrInsufficientData", app, stage, err)
						}
						refused++
						continue
					}
					fitted++
					if !closeTo(slope, want.Slope) || !closeTo(intercept, want.Intercept) {
						t.Fatalf("%s/%d: oracle (%v, %v), FitLine (%v, %v)",
							app, stage, slope, intercept, want.Slope, want.Intercept)
					}
					// The SPARQL reference also needs an Amdahl fit, so it
					// may refuse where the oracle answers — never disagree.
					if ref, err := b.FitStageModel(app, stage); err == nil {
						if !closeTo(slope, ref.A) || !closeTo(intercept, ref.B) {
							t.Fatalf("%s/%d: oracle (%v, %v), SPARQL (%v, %v)",
								app, stage, slope, intercept, ref.A, ref.B)
						}
					}
				}
			}
			if fitted == 0 || refused == 0 {
				t.Fatalf("fitted %d stages, refused %d: the draw must exercise both", fitted, refused)
			}
		})
	}
}

// TestOracleDoesNotFlush: the cost oracle is an advisory read. It sees what
// has been folded and leaves buffered observations buffered.
func TestOracleDoesNotFlush(t *testing.T) {
	b := New()
	seedLinearStage(t, b, "BWA", 0, 2, 1)
	before, err := b.EstimateStageCost("BWA", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LogRunAsync(RunLog{App: "BWA", Stage: 0, InputSize: 9, Threads: 1, ETime: 500}); err != nil {
		t.Fatal(err)
	}
	after, err := b.EstimateStageCost("BWA", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.ChainCosts([]StageRef{{App: "BWA", Stage: 0}, {App: "GATK", Stage: 1}}, 4)
	if got := b.PendingLogs(); got != 1 {
		t.Fatalf("PendingLogs = %d after oracle reads, want the 1 buffered log untouched", got)
	}
	if after != before {
		t.Fatalf("estimate moved from %+v to %+v on an unfolded observation", before, after)
	}
	b.Flush()
	if folded, _ := b.EstimateStageCost("BWA", 0, 4); folded.Seconds <= before.Seconds {
		t.Fatalf("estimate %v did not rise above %v once the outlier folded", folded.Seconds, before.Seconds)
	}
}

// TestOracleReadDoesNotWaitOutAFold: a batch fold holds the graph's write
// lock for the whole batch; an oracle read must answer meanwhile, or job
// latency would depend on when the background flusher happens to run.
func TestOracleReadDoesNotWaitOutAFold(t *testing.T) {
	b := New()
	seedLinearStage(t, b, "BWA", 0, 2, 1)
	b.mu.Lock() // a fold in progress
	defer b.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := b.EstimateStageCost("BWA", 0, 4)
		b.ChainCosts([]StageRef{{App: "BWA", Stage: 0}}, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oracle read blocked behind the graph lock")
	}
}
