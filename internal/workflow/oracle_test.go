package workflow

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"scan/internal/knowledge"
)

// sizedTool is a synthetic streaming stage whose shards carry *records
// records each and cost perRecord of wall time per record.
type sizedTool struct {
	records   *int // per-shard records of the current run
	perRecord time.Duration
}

func (s *sizedTool) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	return s, true, nil
}

func (s *sizedTool) Split() ([]StreamShard, error) {
	shards := make([]StreamShard, 4)
	for i := range shards {
		shards[i] = StreamShard{Records: *s.records, Data: i}
	}
	return shards, nil
}

func (s *sizedTool) Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error) {
	time.Sleep(time.Duration(in.Records) * s.perRecord)
	return in, ctx.Err()
}

func (s *sizedTool) Gather(shards []StreamShard) (*Dataset, error) {
	return &Dataset{Type: FASTQ}, nil
}

// TestCostOracleAnswersOnEngineTelemetry is the regression test for "the
// oracle never answered": every run log an engine writes is
// single-threaded, and the oracle must price stages from exactly that
// telemetry — as soon as a stage has been seen at two shard sizes — without
// evaluating SPARQL or flushing on the job's path. StageEnv.EstimateShardCost
// is the oracle's engine consumer (the fleet's hire input).
func TestCostOracleAnswersOnEngineTelemetry(t *testing.T) {
	const small, large = 2, 4
	records := small
	perRecord := []time.Duration{2 * time.Millisecond, 500 * time.Microsecond, time.Millisecond}
	execs := NewExecutorRegistry()
	w := Workflow{Name: "sized-chain", Family: "genomic"}
	for i, name := range []string{"Head", "Mid", "Tail"} {
		w.Stages = append(w.Stages, Stage{
			Name: name, Tool: "Sized" + name, Consumes: FASTQ, Produces: FASTQ, Parallelizable: true,
		})
		if err := execs.Register("Sized"+name, "", streamOnly{&sizedTool{records: &records, perRecord: perRecord[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	kb := knowledge.New()
	e := NewEngine(EngineOptions{Executors: execs, KB: kb, Workers: 2})

	var mu sync.Mutex
	seen := map[string][]float64{} // tool -> shard seconds at the large size
	opts := RunOptions{ShardObserver: func(tool string, recs int, elapsed time.Duration) {
		if recs == large {
			mu.Lock()
			seen[tool] = append(seen[tool], elapsed.Seconds())
			mu.Unlock()
		}
	}}
	for _, recs := range []int{small, large, small, large} {
		records = recs
		if _, err := e.Run(context.Background(), w, &Dataset{Type: FASTQ}, opts); err != nil {
			t.Fatal(err)
		}
	}
	kb.Flush()
	// One more observation stays buffered: the oracle must leave it there.
	if err := kb.LogRunAsync(knowledge.RunLog{App: "SizedHead", Stage: 0, InputSize: 3, Threads: 1, ETime: 1}); err != nil {
		t.Fatal(err)
	}

	costs := make([]float64, len(w.Stages))
	for i, st := range w.Stages {
		env := &StageEnv{engine: e, stage: st, index: i}
		costs[i] = env.EstimateShardCost(large, -1)
		// With two distinct sizes the least-squares line passes through
		// each size's mean: the estimate at the large size is the observed
		// mean shard time there, not the fallback.
		mean := 0.0
		for _, s := range seen[st.Tool] {
			mean += s / float64(len(seen[st.Tool]))
		}
		if math.Abs(costs[i]-mean) > 1e-6*mean {
			t.Errorf("stage %s: EstimateShardCost = %v, want the observed mean %v", st.Name, costs[i], mean)
		}
	}
	if !(costs[0] > costs[2] && costs[2] > costs[1]) {
		t.Fatalf("EstimateShardCost = %v, want Head > Tail > Mid like the stages' shard times", costs)
	}
	if got := kb.PendingLogs(); got != 1 {
		t.Fatalf("PendingLogs = %d after oracle reads, want 1: the job path must not flush", got)
	}
}

// TestFirstTelemetryReachesTheBroker: one job's handful of shard logs is far
// below the ingest batch, yet the next job's plan must be able to price the
// stage — the engine has an unpriced stage's telemetry folded in the
// background, with no Flush on the job path.
func TestFirstTelemetryReachesTheBroker(t *testing.T) {
	records := 3
	execs := NewExecutorRegistry()
	if err := execs.Register("SizedOnce", "", streamOnly{&sizedTool{records: &records, perRecord: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	w := Workflow{Name: "sized-once", Family: "genomic", Stages: []Stage{
		{Name: "Once", Tool: "SizedOnce", Consumes: FASTQ, Produces: FASTQ, Parallelizable: true},
	}}
	kb := knowledge.New()
	e := NewEngine(EngineOptions{Executors: execs, KB: kb, Workers: 2})
	if _, err := e.Run(context.Background(), w, &Dataset{Type: FASTQ}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if rate, ok := kb.StageRate("SizedOnce", 0); ok {
			if rate <= 0 {
				t.Fatalf("StageRate = %v", rate)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("StageRate still unknown with %d logs buffered", kb.PendingLogs())
		}
	}
}
