package knowledge

// The cost oracle: "how long will one task of this stage take", asked by
// the fleet coordinator (through the workflow engine) to price a hire and
// by the Data Broker (StageRate) to price a split: an
// O(1) read of per-(app, stage) sufficient statistics
// for E(d) = a·d + b, kept by addRunLocked — where LogRun, the async fold
// and WAL replay all funnel — and rebuilt where Import / snapshot load
// recounts b.runs. Reads take linesMu alone (never mu: no job waits out a
// batch fold), touch no graph state and do not Flush: like ShardAdvice they
// may trail accepted telemetry by one ingest batch. FitStageModel is the
// SPARQL reference.

import (
	"fmt"

	"scan/internal/ontology"
	"scan/internal/stats"
)

// lineStats accumulates one stage's single-thread (size, time) runs as a
// count, running means and centred co-moments: stats.FitLine's two-pass
// sums by Welford updates, so one distinct size leaves sxx exactly 0.
type lineStats struct{ n, meanX, meanY, sxx, sxy float64 }

// observeLocked folds one observation into its stage's accumulator. Only
// single-thread runs shape E(d), as in FitStageModel. The caller holds b.mu.
func (b *Base) observeLocked(l RunLog) {
	if l.Threads != 1 {
		return
	}
	b.linesMu.Lock()
	defer b.linesMu.Unlock()
	key := StageRef{App: l.App, Stage: l.Stage}
	s := b.lines[key]
	s.n++
	dx := l.InputSize - s.meanX
	s.meanX += dx / s.n
	s.meanY += (l.ETime - s.meanY) / s.n
	s.sxx += dx * (l.InputSize - s.meanX)
	s.sxy += dx * (l.ETime - s.meanY)
	b.lines[key] = s
}

// rebuildLinesLocked recomputes every accumulator from the graph's RunLog
// individuals (sorted: a reloaded snapshot accumulates in logging order),
// skipping any without one numeric value per run-log property — nothing
// this package mints. The caller holds b.mu.
func (b *Base) rebuildLinesLocked(runs []ontology.Term) {
	b.linesMu.Lock()
	b.lines = make(map[StageRef]lineStats)
	b.linesMu.Unlock()
	props := [4]ontology.Term{iri(PropStage), iri(PropInputFileSize), iri(PropThreads), iri(PropETime)}
	pApp := iri(PropApplication)
	for _, run := range runs {
		var v [4]float64
		ok := true
		for i, prop := range props {
			o, _ := b.graph.Object(run, prop)
			f, numeric := o.AsFloat()
			v[i], ok = f, ok && numeric
		}
		if app, _ := b.graph.Object(run, pApp); ok && app.Value != "" {
			b.observeLocked(RunLog{App: localName(app), Stage: int(v[0]), InputSize: v[1], Threads: int(v[2]), ETime: v[3]})
		}
	}
}

// CostEstimate is one predicted stage-task runtime: (App, Stage)'s single-
// thread execution time at the queried size, in the run logs' eTime units.
type CostEstimate struct {
	App     string
	Stage   int
	Seconds float64
}

// EstimateStageCost predicts the serial runtime of one (app, stage) task at
// the given input size (in the KB's abstract size units), in constant time.
// It fails exactly when stats.FitLine would — fewer than two single-thread
// runs folded, or all at one size — and callers fall back to uniform costs.
// The prediction is the raw line, unfloored (millisecond shards must stay
// distinguishable); callers read a non-positive one as no estimate.
func (b *Base) EstimateStageCost(app string, stage int, inputSize float64) (CostEstimate, error) {
	b.linesMu.Lock()
	s := b.lines[StageRef{App: app, Stage: stage}]
	b.linesMu.Unlock()
	if s.n < 2 || s.sxx == 0 {
		return CostEstimate{}, fmt.Errorf("knowledge: fitting E(d) for %s stage %d: %w", app, stage, stats.ErrInsufficientData)
	}
	slope := s.sxy / s.sxx
	return CostEstimate{App: app, Stage: stage, Seconds: s.meanY + slope*(inputSize-s.meanX)}, nil
}

// StageRate is a stage's observed cost in seconds per size unit: mean eTime
// over mean input size of its folded single-thread runs. Unlike the line it
// needs no spread of sizes, so it answers (ok) from the first observation.
// The Data Broker prices a split with it; an O(1), unflushed linesMu read.
func (b *Base) StageRate(app string, stage int) (float64, bool) {
	b.linesMu.Lock()
	s := b.lines[StageRef{App: app, Stage: stage}]
	b.linesMu.Unlock()
	if s.n < 1 || s.meanX <= 0 {
		return 0, false
	}
	return s.meanY / s.meanX, true
}

// StageRef names one (application, stage) pair: a link of a stage chain in
// a chain-cost query, and the key of the oracle's accumulators.
type StageRef struct {
	App   string
	Stage int
}

// ChainCosts estimates every stage of a chain at a common per-task input
// size. Stages the KB cannot regress yet take the mean fitted cost (or 1
// when nothing in the chain has a fit), so a partially trained KB still
// orders usefully: fitted stages order correctly, unknown ones sit between.
// Its only reader outside tests is bench/.
func (b *Base) ChainCosts(chain []StageRef, inputSize float64) []float64 {
	costs := make([]float64, len(chain)) // 0 marks a stage without a fit
	sum, n := 0.0, 0
	for i, ref := range chain {
		if est, err := b.EstimateStageCost(ref.App, ref.Stage, inputSize); err == nil && est.Seconds > 0 {
			costs[i] = est.Seconds
			sum += est.Seconds
			n++
		}
	}
	fallback := 1.0
	if n > 0 {
		fallback = sum / float64(n)
	}
	for i, c := range costs {
		if c == 0 {
			costs[i] = fallback
		}
	}
	return costs
}
