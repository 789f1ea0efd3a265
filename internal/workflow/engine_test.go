package workflow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scan/internal/align"
	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/proteome"
	"scan/internal/shard"
	"scan/internal/variant"
)

// varConfigForTests mirrors the calling thresholds the platform tests use.
func varConfigForTests() variant.Config {
	return variant.Config{MinDepth: 8, MinAltFraction: 0.6}
}

// executorFunc adapts a function to StageExecutor for tests.
type executorFunc func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error)

func (f executorFunc) Execute(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
	return f(ctx, env, in)
}

func synthDataset(t testing.TB, refLen, reads int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.GenerateReference(rng, "chr1", refLen)
	mutated, _ := genomics.PlantSNVs(rng, ref, 10)
	rd, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: reads, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewFASTQDataset(ref, rd)
}

func seededKB(t testing.TB) *knowledge.Base {
	t.Helper()
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	return kb
}

func testEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	return NewEngine(EngineOptions{KB: seededKB(t), Workers: workers})
}

func TestEngineRunsVariantDetection(t *testing.T) {
	e := testEngine(t, 4)
	ds := synthDataset(t, 8000, 2000, 1)
	res, err := e.RunByName(context.Background(), "dna-variant-detection", ds, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow != "dna-variant-detection" {
		t.Fatalf("workflow = %q", res.Workflow)
	}
	// All 8 catalogue stages executed, in order.
	if len(res.Stages) != 8 {
		t.Fatalf("stages executed = %d, want 8", len(res.Stages))
	}
	if res.Stages[0].Stage != "Align" || res.Stages[6].Stage != "UnifiedGenotyper" {
		t.Fatalf("stage order = %+v", res.Stages)
	}
	out := res.Output
	if out.Type != VCF {
		t.Fatalf("output type = %s", out.Type)
	}
	// The output dataset accumulates: alignments survive the calling stage.
	if len(out.Alignments) != 2000 || out.Mapped == 0 {
		t.Fatalf("alignments = %d, mapped = %d", len(out.Alignments), out.Mapped)
	}
	if len(out.Variants) == 0 {
		t.Fatal("no variants called")
	}
	// The align stage recorded its Data Broker plan and advice.
	if res.Stages[0].Plan.NumShards == 0 || res.Stages[0].Advice.BasedOn == "" {
		t.Fatalf("align stage result = %+v", res.Stages[0])
	}
}

// TestRecordShardSizeFillsPool pins the Data Broker's plan: the advised
// shard count on a KB with no telemetry for the stage, whole waves of the
// pool once the stage's observed rate prices every shard above the floor,
// the advised count again below it — a serve-sized proteome job stays
// whole and a bench-sized one splits — equal shards throughout, the
// ShardRecords override taken exactly, and RemoteOptions reproducing the
// plan on an engine with no KB at all.
func TestRecordShardSizeFillsPool(t *testing.T) {
	// plan runs RecordShardSize for the first stage of a tool, as its Split
	// would, and returns the env so RemoteOptions can be read off it.
	plan := func(kb *knowledge.Base, workers int, opts RunOptions, tool string, total int) (shard.Plan, *StageEnv) {
		t.Helper()
		e := NewEngine(EngineOptions{KB: kb, Workers: workers})
		env := &StageEnv{engine: e, stage: Stage{Tool: tool}, opts: opts, result: &StageResult{}}
		per, err := env.RecordShardSize(total)
		if err != nil {
			t.Fatal(err)
		}
		if per != env.result.Plan.RecordsPerShard {
			t.Fatalf("returned %d records per shard, plan says %+v", per, env.result.Plan)
		}
		return env.result.Plan, env
	}
	// observed is a KB that has seen one single-thread run of the tool at
	// secondsPerUnit.
	observed := func(tool string, secondsPerUnit float64) *knowledge.Base {
		kb := seededKB(t)
		if err := kb.LogRun(knowledge.RunLog{App: tool, InputSize: 2, Threads: 1, ETime: 2 * secondsPerUnit}); err != nil {
			t.Fatal(err)
		}
		return kb
	}
	want := func(total, per, n int) shard.Plan {
		return shard.Plan{TotalRecords: total, RecordsPerShard: per, NumShards: n}
	}

	// No telemetry: the broker's count (30 000 reads over GATK3's 20-unit
	// chunks is 2 shards; 1 500 records fit no profile, 1 shard), cut equal
	// — not rounded to the pool.
	for _, w := range []int{2, 3} {
		if got, _ := plan(seededKB(t), w, RunOptions{}, "BWA", 30000); got != want(30000, 15000, 2) {
			t.Fatalf("W=%d, 30000 reads, no telemetry: plan %+v", w, got)
		}
		if got, _ := plan(seededKB(t), w, RunOptions{}, "MaxQuant", 1500); got != want(1500, 1500, 1) {
			t.Fatalf("W=%d, 1500 spectra, no telemetry: plan %+v", w, got)
		}
	}

	// Telemetry above the floor: whole waves of the pool.
	for _, tc := range []struct {
		tool         string
		rate         float64 // observed seconds per unit
		workers      int
		total        int
		wantPer, nSh int
	}{
		{"MaxQuant", 1, 2, 1500, 750, 2},
		{"MaxQuant", 1, 3, 1500, 500, 3},
		{"BWA", 1, 2, 30000, 15000, 2}, // already a whole wave
		{"BWA", 1, 3, 30000, 10000, 3},
		{"BWA", 100, 4, 3, 1, 3}, // never more shards than records
	} {
		got, _ := plan(observed(tc.tool, tc.rate), tc.workers, RunOptions{}, tc.tool, tc.total)
		if got != want(tc.total, tc.wantPer, tc.nSh) {
			t.Fatalf("%s W=%d total %d: plan %+v, want %d shards of %d",
				tc.tool, tc.workers, tc.total, got, tc.nSh, tc.wantPer)
		}
	}
	// A rate for another stage or tool does not price this one.
	if got, _ := plan(observed("GPM", 1), 2, RunOptions{}, "MaxQuant", 1500); got.NumShards != 1 {
		t.Fatalf("GPM telemetry split a MaxQuant stage: plan %+v", got)
	}

	// Around the floor, at the rates the search runs at: a serve-sized job
	// of 150 spectra over 10 proteins, at 0.67 ms per 1 000 spectra, would
	// make two 0.05 ms shards — kept whole; the benchmark's 1 500 spectra
	// over 200 proteins, at 1.73 ms per 1 000, make two 1.3 ms shards.
	if got, _ := plan(observed("MaxQuant", 0.00067), 2, RunOptions{}, "MaxQuant", 150); got != want(150, 150, 1) {
		t.Fatalf("150 spectra below the floor: plan %+v", got)
	}
	if got, _ := plan(observed("MaxQuant", 0.00173), 2, RunOptions{}, "MaxQuant", 1500); got != want(1500, 750, 2) {
		t.Fatalf("1 500 spectra above the floor: plan %+v", got)
	}

	// The override is exact: no rounding, no equalising, no advice.
	got, env := plan(observed("MaxQuant", 1), 3, RunOptions{ShardRecords: 700}, "MaxQuant", 1500)
	if got != want(1500, 700, 3) || env.result.Advice != (knowledge.Advice{}) {
		t.Fatalf("ShardRecords 700: plan %+v, advice %+v", got, env.result.Advice)
	}

	// A fleet worker's engine has no KB: the pinned options alone must
	// rebuild the coordinator's wave-rounded plan.
	coord, env := plan(observed("MaxQuant", 1), 3, RunOptions{}, "MaxQuant", 1500)
	if remote, _ := plan(nil, 1, env.RemoteOptions(), "MaxQuant", 1500); remote != coord {
		t.Fatalf("worker re-plan %+v, coordinator %+v", remote, coord)
	}
}

// BenchmarkShardOverhead measures what one more shard costs a stage: a
// proteome-maxquant run over 64 empty spectra, whose shards have no work,
// in one shard and in 64 on a pool of two, each run's logs folded into
// the knowledge base. The difference per extra shard — a pool slot, a
// logShard and its fold, and the shard's share of Split and Gather — is
// the ns/shard figure minShardSeconds is priced from.
func BenchmarkShardOverhead(b *testing.B) {
	const n = 64
	kb := seededKB(b)
	e := NewEngine(EngineOptions{KB: kb, Workers: 2})
	ds := NewMGFDataset(mgfDataset(b, 200, 1, 1).PeptideDB, make([]proteome.Spectrum, n))
	run := func(per int) time.Duration {
		start := time.Now()
		if _, err := e.RunByName(context.Background(), "proteome-maxquant", ds, RunOptions{ShardRecords: per}); err != nil {
			b.Fatal(err)
		}
		kb.Flush()
		return time.Since(start)
	}
	var whole, split time.Duration
	for i := 0; i < b.N; i++ {
		whole += run(n)
		split += run(1)
	}
	b.ReportMetric(float64((split-whole).Nanoseconds())/float64(b.N*(n-1)), "ns/shard")
}

func TestInputTypeMismatchRejected(t *testing.T) {
	e := testEngine(t, 2)
	ds := synthDataset(t, 4000, 100, 2)
	ds.Type = BAM // lie about the payload
	_, err := e.RunByName(context.Background(), "dna-variant-detection", ds, RunOptions{})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
	if _, err := e.RunByName(context.Background(), "dna-variant-detection", nil, RunOptions{}); !errors.Is(err, ErrNilDataset) {
		t.Fatalf("nil dataset err = %v", err)
	}
}

func TestExecutorOutputTypeChecked(t *testing.T) {
	// An executor whose output contradicts the catalogue declaration is a
	// registration bug the engine must catch, not propagate.
	cat := NewRegistry()
	if err := cat.Register(Workflow{
		Name: "lying", Family: "genomic",
		Stages: []Stage{{Name: "Lie", Tool: "TestTool", Consumes: FASTQ, Produces: BAM}},
	}); err != nil {
		t.Fatal(err)
	}
	execs := NewExecutorRegistry()
	if err := execs.Register("TestTool", "", executorFunc(
		func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
			out := *in
			out.Type = VCF // catalogue says BAM
			return &out, nil
		})); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Catalogue: cat, Executors: execs})
	_, err := e.RunByName(context.Background(), "lying", synthDataset(t, 4000, 10, 3), RunOptions{})
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
}

// TestEveryCataloguedWorkflowRunnable: with the family substrates bound,
// the default registry has an executor for every stage of every catalogued
// workflow — the catalogue is 100% executable, not a menu of aspirations.
func TestEveryCataloguedWorkflowRunnable(t *testing.T) {
	e := testEngine(t, 2)
	for _, name := range e.Catalogue().Names() {
		w, err := e.Catalogue().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CanRun(w); err != nil {
			t.Errorf("CanRun(%s) = %v", name, err)
		}
	}
}

// TestNoExecutorForUnknownTool: ErrNoExecutor survives for genuinely
// unknown tools — a workflow registered around an unbound tool still fails
// loudly at CanRun and Run.
func TestNoExecutorForUnknownTool(t *testing.T) {
	cat := NewRegistry()
	w := Workflow{
		Name: "hypothetical", Family: "genomic",
		Stages: []Stage{{Name: "Fold", Tool: "AlphaFold", Consumes: FASTQ, Produces: VCF}},
	}
	if err := cat.Register(w); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Catalogue: cat, KB: seededKB(t)})
	if err := e.CanRun(w); !errors.Is(err, ErrNoExecutor) {
		t.Fatalf("CanRun = %v, want ErrNoExecutor", err)
	}
	_, err := e.RunByName(context.Background(), "hypothetical", &Dataset{Type: FASTQ}, RunOptions{})
	if !errors.Is(err, ErrNoExecutor) {
		t.Fatalf("err = %v, want ErrNoExecutor", err)
	}
}

func TestCancellationStopsQueueing(t *testing.T) {
	// A shard cancelling the run must stop the pool from queueing the
	// remaining shards: the semaphore acquisition selects on ctx.Done.
	cat := NewRegistry()
	if err := cat.Register(Workflow{
		Name: "wide", Family: "genomic",
		Stages: []Stage{{Name: "Fan", Tool: "TestTool", Consumes: FASTQ, Produces: FASTQ, Parallelizable: true}},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int32
	execs := NewExecutorRegistry()
	if err := execs.Register("TestTool", "", executorFunc(
		func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
			err := env.pool(ctx, 100, func(i int) error {
				executed.Add(1)
				cancel()
				return nil
			})
			if err != nil {
				return nil, err
			}
			return in, nil
		})); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Catalogue: cat, Executors: execs, Workers: 1})
	_, err := e.RunByName(ctx, "wide", &Dataset{Type: FASTQ}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= 100 {
		t.Fatalf("pool ran all %d shards despite cancellation", n)
	}
}

func TestCancellationStopsStageChain(t *testing.T) {
	// A context cancelled during stage 1 must prevent stage 2 from running.
	cat := NewRegistry()
	if err := cat.Register(Workflow{
		Name: "two-step", Family: "genomic",
		Stages: []Stage{
			{Name: "First", Tool: "CancelTool", Consumes: FASTQ, Produces: FASTQ},
			{Name: "Second", Tool: "MustNotRun", Consumes: FASTQ, Produces: FASTQ},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	secondRan := false
	execs := NewExecutorRegistry()
	if err := execs.Register("CancelTool", "", executorFunc(
		func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
			cancel()
			return in, nil
		})); err != nil {
		t.Fatal(err)
	}
	if err := execs.Register("MustNotRun", "", executorFunc(
		func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
			secondRan = true
			return in, nil
		})); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Catalogue: cat, Executors: execs, Workers: 1})
	if _, err := e.RunByName(ctx, "two-step", &Dataset{Type: FASTQ}, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if secondRan {
		t.Fatal("stage after cancellation still executed")
	}
}

func TestPerStageRunLogGrowth(t *testing.T) {
	kb := seededKB(t)
	e := NewEngine(EngineOptions{KB: kb, Workers: 2})
	before := kb.RunCount()
	ds := synthDataset(t, 6000, 1200, 4)
	if _, err := e.RunByName(context.Background(), "dna-variant-detection", ds,
		RunOptions{ShardRecords: 300, Regions: 3}); err != nil {
		t.Fatal(err)
	}
	if kb.RunCount() <= before {
		t.Fatal("engine did not grow the knowledge base")
	}
	// Logs are keyed by tool and stage position: the BWA fan-out at stage
	// 0 (4 shards of 300 reads) and the genotyper at stage 6 (3 regions).
	for _, tc := range []struct {
		app   string
		stage int
		want  int
	}{{"BWA", 0, 4}, {"GATK", 6, 3}} {
		res, err := kb.Query(fmt.Sprintf(`
PREFIX scan: <%s>
SELECT ?run WHERE {
  ?run a scan:RunLog ;
       scan:application scan:%s ;
       scan:stage %d .
}`, knowledge.NS, tc.app, tc.stage))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != tc.want {
			t.Fatalf("%s stage %d: %d run logs, want %d", tc.app, tc.stage, res.Len(), tc.want)
		}
	}
}

func TestPerShardTimingsAreOwnDurations(t *testing.T) {
	// Regression for the seed bug where every shard logged the cumulative
	// stage elapsed time: on a single worker the per-shard durations are
	// disjoint slices of the stage wall clock, so their sum cannot exceed
	// the stage elapsed time. Under the old bug the sum over n shards
	// approached n/2 × elapsed.
	kb := seededKB(t)
	e := NewEngine(EngineOptions{KB: kb, Workers: 1})
	ds := synthDataset(t, 8000, 2400, 5)
	res, err := e.RunByName(context.Background(), "dna-variant-detection", ds,
		RunOptions{ShardRecords: 300, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	align := res.Stages[0]
	if align.Shards != 8 {
		t.Fatalf("align shards = %d, want 8", align.Shards)
	}
	q, err := kb.Query(`
PREFIX scan: <` + knowledge.NS + `>
SELECT ?time WHERE {
  ?run a scan:RunLog ;
       scan:application scan:BWA ;
       scan:eTime ?time .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 8 {
		t.Fatalf("BWA run logs = %d, want 8", q.Len())
	}
	sum := 0.0
	for _, row := range q.Rows {
		v, _ := row["time"].AsFloat()
		sum += v
	}
	if limit := 2 * align.Elapsed.Seconds(); sum > limit {
		t.Fatalf("per-shard timings sum to %.4fs, stage took %.4fs — shards are logging cumulative time",
			sum, align.Elapsed.Seconds())
	}
}

func TestSomaticWorkflowEndToEnd(t *testing.T) {
	e := testEngine(t, 4)
	ds := synthDataset(t, 8000, 2400, 6)
	res, err := e.RunByName(context.Background(), "somatic-mutation-detection", ds,
		RunOptions{Caller: varConfigForTests()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Type != VCF || len(res.Output.Variants) == 0 {
		t.Fatalf("output = %s with %d variants", res.Output.Type, len(res.Output.Variants))
	}
	if len(res.Stages) != 2 || res.Stages[1].Tool != "MuTect" {
		t.Fatalf("stages = %+v", res.Stages)
	}
}

// TestRNAExpressionFeatures: a feature row is one quantifyBinWidth bin of
// the reference, whatever the region count, and the counts partition the
// mapped reads.
func TestRNAExpressionFeatures(t *testing.T) {
	e := testEngine(t, 4)
	ds := synthDataset(t, 8000, 2000, 7)
	res, err := e.RunByName(context.Background(), "rna-expression", ds, RunOptions{Regions: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if bins := 8000 / quantifyBinWidth; out.Type != FeatureTable || len(out.Features) != bins {
		t.Fatalf("output = %s with %d features, want %d bins", out.Type, len(out.Features), bins)
	}
	// Start-position scatter: feature counts partition the mapped reads.
	total := 0
	for i, f := range out.Features {
		total += f.Count
		if f.Name == "" || f.Start != i*quantifyBinWidth+1 || f.End != f.Start+quantifyBinWidth-1 {
			t.Fatalf("feature %d = %+v, want bin %d", i, f, i)
		}
	}
	if total != out.Mapped {
		t.Fatalf("feature counts sum to %d, mapped = %d", total, out.Mapped)
	}
}

// reverseShare makes every third read one the opposite strand gave: its
// bases reverse-complemented and its qualities reversed.
func reverseShare(reads []genomics.Read) {
	for i := 0; i < len(reads); i += 3 {
		r := &reads[i]
		seq, qual := make([]byte, len(r.Seq)), make([]byte, len(r.Qual))
		for j, b := range r.Seq {
			c := byte('N')
			if k := strings.IndexByte("ACGT", b); k >= 0 {
				c = "TGCA"[k]
			}
			seq[len(seq)-1-j] = c
		}
		for j, q := range r.Qual {
			qual[len(qual)-1-j] = q
		}
		r.Seq, r.Qual = seq, qual
	}
}

// planInput draws a genomic input that stresses the region scatters:
// reads of mixed lengths, reads at both reference ends, reads long enough
// to span several regions, N bases, unmapped reads and reads from the
// reverse strand. The reference ends in a partial expression bin.
func planInput(t testing.TB, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.GenerateReference(rng, "chr1", 2300)
	mutated, _ := genomics.PlantSNVs(rng, ref, 8)
	reads, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{Count: 400, Length: 60, ErrorRate: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if rng.Intn(4) == 0 { // a shorter read
			n := 20 + rng.Intn(40)
			reads[i].Seq, reads[i].Qual = reads[i].Seq[:n], reads[i].Qual[:n]
		}
		if rng.Intn(8) == 0 {
			reads[i].Seq[rng.Intn(len(reads[i].Seq))] = 'N'
		}
	}
	add := func(seq []byte) {
		reads = append(reads, genomics.Read{ID: fmt.Sprint("extra", len(reads)), Seq: seq, Qual: bytes.Repeat([]byte("I"), len(seq))})
	}
	end := mutated.Len()
	for range 6 {
		add(bytes.Clone(mutated.Seq[:60]))
		add(bytes.Clone(mutated.Seq[:25]))
		add(bytes.Clone(mutated.Seq[end-60:]))
		add(bytes.Clone(mutated.Seq[end-25:]))
		at := rng.Intn(end - 700)
		add(bytes.Clone(mutated.Seq[at : at+700]))
		junk := make([]byte, 60) // maps nowhere
		for i := range junk {
			junk[i] = "ACGT"[rng.Intn(4)]
		}
		add(junk)
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	reverseShare(reads)
	return NewFASTQDataset(ref, reads)
}

// ignoresPlan runs workflow name over ds on pools of 1, 2 and 8, under
// every options value plans gives for the pool, hands each result to
// check, and fails unless every output encodes to the first one's bytes.
// Only when some plans take the Data Broker's advice (advised) do the
// engines get a knowledge base: the thousands of shards of the other
// plans would otherwise leave their telemetry folding in the background
// while later tests time their shards.
func ignoresPlan(t *testing.T, name string, ds *Dataset, advised bool, plans func(pool int) []RunOptions, check func(pool int, opts RunOptions, res *Result)) {
	t.Helper()
	var want []byte
	for _, pool := range []int{1, 2, 8} {
		for _, opts := range plans(pool) {
			e := NewEngine(EngineOptions{Workers: pool})
			if advised {
				e = testEngine(t, pool)
			}
			res, err := e.RunByName(context.Background(), name, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(pool, opts, res)
			got, err := EncodeDataset(res.Output)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("pool %d, %d records per shard, %d regions: the output differs from the first plan's",
					pool, opts.ShardRecords, opts.Regions)
			}
		}
	}
}

// recordPlans cuts n records into one shard, one per pool slot, 7 shards
// or one record each.
func recordPlans(n int) func(pool int) []RunOptions {
	return func(pool int) []RunOptions {
		var plans []RunOptions
		for _, shards := range []int{1, pool, 7, n} {
			plans = append(plans, RunOptions{ShardRecords: (n + shards - 1) / shards})
		}
		return plans
	}
}

// TestGenomicWorkflowsIgnorePlan: every read-consuming genomic workflow's
// answer is a function of its input, not of its shard plan — align shards
// of the advised size, one read, an odd count or all reads, times 1, 2, 7
// or more regions than reference bases, on a pool of 1, 2 or 8 — down to
// the encoded bytes of its output. So is integrative-network's, in one
// shard, one per pool slot, 7 or one node each, on values with ties, NaN,
// ±Inf and ±0, and its edge count is the pairwise scan's. So are the
// proteomic workflows', in the same plans, on the hostile spectra.
func TestGenomicWorkflowsIgnorePlan(t *testing.T) {
	ds := planInput(t, 11)
	readPlans := func(int) []RunOptions {
		var plans []RunOptions
		for _, records := range []int{0, 1, 37, len(ds.Reads)} {
			for _, regions := range []int{1, 2, 7, ds.Reference.Len() + 1} {
				plans = append(plans, RunOptions{ShardRecords: records, Regions: regions, Caller: varConfigForTests()})
			}
		}
		return plans
	}
	for _, name := range []string{
		"dna-variant-detection", "exome-variant-detection", "wgs-variant-detection",
		"somatic-mutation-detection", "mirna-fusion-detection", "rna-expression",
	} {
		t.Run(name, func(t *testing.T) {
			ignoresPlan(t, name, ds, true, readPlans, func(pool int, opts RunOptions, res *Result) {
				out := res.Output
				if out.Mapped == 0 || out.Mapped == len(ds.Reads) || len(out.Variants)+len(out.Features) == 0 {
					t.Fatalf("pool %d, %+v: %d of %d reads mapped, %d calls, %d features",
						pool, opts, out.Mapped, len(ds.Reads), len(out.Variants), len(out.Features))
				}
				if bins := (ds.Reference.Len() + quantifyBinWidth - 1) / quantifyBinWidth; out.Type == FeatureTable && len(out.Features) != bins {
					t.Fatalf("pool %d, %+v: %d features, want %d bins", pool, opts, len(out.Features), bins)
				}
			})
		})
	}
	// shards fails the run unless its one stage ran the plan's shard count.
	shards := func(pool int, opts RunOptions, res *Result, n int) {
		if s, want := res.Stages[0].Shards, (n+opts.ShardRecords-1)/opts.ShardRecords; s != want {
			t.Fatalf("pool %d, %d records per shard: ran %d shards, want %d", pool, opts.ShardRecords, s, want)
		}
	}
	t.Run("integrative-network", func(t *testing.T) {
		ds := featureDataset(t, 300, 6, 11)
		for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
			ds.Features[7*i].Value = v
		}
		ds.Features[1].Value = ds.Features[2].Value
		pairs := 0
		for i, a := range ds.Features {
			for _, b := range ds.Features[i+1:] {
				if math.Abs(a.Value-b.Value) <= 2 {
					pairs++
				}
			}
		}
		n := len(ds.Features)
		ignoresPlan(t, "integrative-network", ds, false, recordPlans(n), func(pool int, opts RunOptions, res *Result) {
			shards(pool, opts, res, n)
			if res.Output.Net.Edges != pairs {
				t.Fatalf("pool %d, %d records per shard: counted %d edges, want %d", pool, opts.ShardRecords, res.Output.Net.Edges, pairs)
			}
		})
	})
	for _, name := range []string{"proteome-maxquant", "proteome-gpm"} {
		t.Run(name, func(t *testing.T) {
			ds := hostileSpectra(t, 13)
			n := len(ds.Spectra)
			ignoresPlan(t, name, ds, false, recordPlans(n), func(pool int, opts RunOptions, res *Result) {
				shards(pool, opts, res, n)
				if len(res.Output.Proteins) < 10 {
					t.Fatalf("pool %d, %d records per shard: %d proteins quantified", pool, opts.ShardRecords, len(res.Output.Proteins))
				}
			})
		})
	}
}

// TestReverseStrandReadsCallAsForward: the plan input's reverse-strand
// reads, turned back to the forward strand, give the same calls and
// expression features: the caller reads a reverse record's bases
// complemented and backwards, exactly as the read's forward form.
func TestReverseStrandReadsCallAsForward(t *testing.T) {
	mixed := planInput(t, 11)
	forward := NewFASTQDataset(mixed.Reference, slices.Clone(mixed.Reads))
	reverseShare(forward.Reads) // its own inverse: every third read turns back
	for _, name := range []string{"dna-variant-detection", "rna-expression"} {
		var outs [2]*Dataset
		for i, ds := range []*Dataset{mixed, forward} {
			res, err := testEngine(t, 2).RunByName(context.Background(), name, ds,
				RunOptions{ShardRecords: 37, Regions: 7, Caller: varConfigForTests()})
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = res.Output
		}
		if len(outs[0].Variants)+len(outs[0].Features) == 0 || outs[0].Mapped != outs[1].Mapped ||
			!slices.Equal(outs[0].Variants, outs[1].Variants) || !slices.Equal(outs[0].Features, outs[1].Features) {
			t.Fatalf("%s: %d mapped, calls %+v, %d features; forward-only: %d mapped, calls %+v",
				name, outs[0].Mapped, outs[0].Variants, len(outs[0].Features), outs[1].Mapped, outs[1].Variants)
		}
	}
}

func TestMergeVCFWorkflowDeduplicates(t *testing.T) {
	e := testEngine(t, 2)
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("ACGTACGTACGT")}
	v := genomics.Variant{Pos: 3, Ref: 'G', Alt: 'T', Qual: 50}
	in := NewVCFDataset(ref, []genomics.Variant{v, v, {Pos: 1, Ref: 'A', Alt: 'C', Qual: 40}})
	res, err := e.RunByName(context.Background(), "variants-to-vcf", in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.Variants
	if len(out) != 2 || out[0].Pos != 1 || out[1].Pos != 3 {
		t.Fatalf("merged variants = %+v", out)
	}
}

func TestExecutorRegistryPrecedence(t *testing.T) {
	r := NewExecutorRegistry()
	exact := executorFunc(func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) { return in, nil })
	wild := executorFunc(func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) { return nil, nil })
	if err := r.Register("GATK", "UnifiedGenotyper", exact); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("GATK", "", wild); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("GATK", "UnifiedGenotyper", exact); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register("", "", exact); err == nil {
		t.Fatal("fully-wildcard registration accepted")
	}
	got, ok := r.Lookup("GATK", "UnifiedGenotyper")
	if !ok {
		t.Fatal("lookup failed")
	}
	// Exact binding wins over the tool wildcard: it passes the dataset
	// through instead of returning nil.
	if out, _ := got.Execute(context.Background(), nil, &Dataset{}); out == nil {
		t.Fatal("exact binding did not take precedence")
	}
	if _, ok := r.Lookup("GATK", "SomeOtherStage"); !ok {
		t.Fatal("tool wildcard did not match")
	}
	if _, ok := r.Lookup("NoSuchTool", "NoSuchStage"); ok {
		t.Fatal("unbound lookup succeeded")
	}
}

func TestVariantFiltrationMinQual(t *testing.T) {
	e := testEngine(t, 2)
	ds := synthDataset(t, 6000, 1800, 8)
	all, err := e.RunByName(context.Background(), "dna-variant-detection", ds, RunOptions{Caller: varConfigForTests()})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := e.RunByName(context.Background(), "dna-variant-detection", ds,
		RunOptions{Caller: varConfigForTests(), MinQual: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Output.Variants) == 0 {
		t.Fatal("no variants to filter")
	}
	if len(strict.Output.Variants) != 0 {
		t.Fatalf("MinQual=1e9 kept %d variants", len(strict.Output.Variants))
	}
}

func TestDatasetRecordsAndString(t *testing.T) {
	ds := synthDataset(t, 4000, 250, 9)
	if ds.Records() != 250 {
		t.Fatalf("records = %d", ds.Records())
	}
	if !strings.Contains(ds.String(), "FASTQ[250") {
		t.Fatalf("string = %q", ds.String())
	}
	if (&Dataset{Type: Network}).Records() != 0 {
		t.Fatal("unknown payload should count 0 records")
	}
}

// TestStageObserverStreamsResults: the observer fires once per stage, in
// catalogue order, with the same StageResult the engine records — the hook
// scand's event stream is built on.
func TestStageObserverStreamsResults(t *testing.T) {
	e := testEngine(t, 2)
	ds := synthDataset(t, 4000, 800, 2)
	var observed []StageResult
	res, err := e.RunByName(context.Background(), "dna-variant-detection", ds, RunOptions{
		StageObserver: func(sr StageResult) { observed = append(observed, sr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != len(res.Stages) {
		t.Fatalf("observer saw %d stages, engine recorded %d", len(observed), len(res.Stages))
	}
	for i, sr := range res.Stages {
		if observed[i] != sr {
			t.Fatalf("stage %d: observed %+v != recorded %+v", i, observed[i], sr)
		}
	}
}

// TestStageObserverStopsWithRun: a failing stage ends the observer stream —
// stages after the failure are never reported.
func TestStageObserverStopsWithRun(t *testing.T) {
	cat := NewRegistry()
	boom := errors.New("stage exploded")
	if err := cat.Register(Workflow{
		Name: "two-stage", Family: "genomic",
		Stages: []Stage{
			{Name: "ok", Tool: "okTool", Consumes: FASTQ, Produces: BAM},
			{Name: "fail", Tool: "failTool", Consumes: BAM, Produces: VCF},
		},
	}); err != nil {
		t.Fatal(err)
	}
	execs := NewExecutorRegistry()
	_ = execs.Register("okTool", "", executorFunc(func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
		return &Dataset{Type: BAM, Reference: in.Reference}, nil
	}))
	_ = execs.Register("failTool", "", executorFunc(func(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
		return nil, boom
	}))
	e := NewEngine(EngineOptions{Catalogue: cat, Executors: execs, Workers: 1})
	var observed []string
	_, err := e.RunByName(context.Background(), "two-stage", synthDataset(t, 2000, 50, 3), RunOptions{
		StageObserver: func(sr StageResult) { observed = append(observed, sr.Stage) },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the stage failure", err)
	}
	if len(observed) != 1 || observed[0] != "ok" {
		t.Fatalf("observed stages = %v, want [ok]", observed)
	}
}

// drivenTool is a streaming stage whose Execute fails the test: Engine.Run
// must drive its stream. It counts every stream call the engine makes.
type drivenTool struct {
	t                                *testing.T
	stream, split, transform, gather atomic.Int32
}

func (d *drivenTool) Execute(context.Context, *StageEnv, *Dataset) (*Dataset, error) {
	d.t.Error("Engine.Run called Execute on a streaming executor")
	return nil, errors.New("Execute called")
}

func (d *drivenTool) Stream(*StageEnv, *Dataset) (StageStream, bool, error) {
	d.stream.Add(1)
	return d, true, nil
}

func (d *drivenTool) Split() ([]StreamShard, error) {
	d.split.Add(1)
	return []StreamShard{{Records: 5, Data: 0}, {Records: 5, Data: 1}, {Records: 5, Data: 2}}, nil
}

func (d *drivenTool) Transform(_ context.Context, _ int, in StreamShard) (StreamShard, error) {
	d.transform.Add(1)
	return in, nil
}

func (d *drivenTool) Gather(shards []StreamShard) (*Dataset, error) {
	d.gather.Add(1)
	for i, s := range shards {
		if s.Data != i {
			return nil, fmt.Errorf("shard %d gathered %v", i, s.Data)
		}
	}
	return &Dataset{Type: BAM}, nil
}

// fakePool runs a stage's shards the way a fleet worker does — a fresh
// PrepareStageShards from the stage's input and pinned options, then
// RunShard — and reports a fixed elapsed time per shard. With err set it
// refuses the stage instead.
type fakePool struct {
	calls atomic.Int32
	err   error
}

const fakeElapsed = 7 * time.Millisecond

func (p *fakePool) RunShards(ctx context.Context, env *StageEnv, shards []StreamShard) ([]StreamShard, []time.Duration, error) {
	p.calls.Add(1)
	if p.err != nil {
		return nil, nil, p.err
	}
	prep, err := env.engine.PrepareStageShards(env.Workflow(), env.StageIndex(), env.Input(), env.RemoteOptions())
	if err != nil {
		return nil, nil, err
	}
	outs := make([]StreamShard, len(shards))
	elapsed := make([]time.Duration, len(shards))
	for i := range shards {
		if outs[i], _, err = prep.RunShard(ctx, i); err != nil {
			return nil, nil, err
		}
		elapsed[i] = fakeElapsed
	}
	return outs, elapsed, nil
}

// TestEngineDrivesTheStream: Engine.Run alone drives a streaming stage.
// It calls Stream, Split, every Transform and Gather — on the local
// pool, on a ShardPool, and locally again when that pool has no workers —
// never Execute, and logs every shard exactly once with the elapsed time
// of the pool that ran it. bench/'s stream decorators rely on this.
func TestEngineDrivesTheStream(t *testing.T) {
	w := Workflow{Name: "driven", Family: "genomic", Stages: []Stage{
		{Name: "Drive", Tool: "Driven", Consumes: FASTQ, Produces: BAM, Parallelizable: true},
	}}
	for _, tc := range []struct {
		name string
		pool *fakePool
		// streams counts Stream (and Split) calls: a remote pool re-prepares
		// the stage, as a fleet worker does.
		streams int32
		remote  bool
	}{
		{name: "local-pool", streams: 1},
		{name: "shard-pool", pool: &fakePool{}, streams: 2, remote: true},
		{name: "no-workers-fallback", pool: &fakePool{err: fmt.Errorf("fleet: %w", ErrNoWorkers)}, streams: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &drivenTool{t: t}
			cat, execs := NewRegistry(), NewExecutorRegistry()
			if err := cat.Register(w); err != nil {
				t.Fatal(err)
			}
			if err := execs.Register("Driven", "", d); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(EngineOptions{Catalogue: cat, Executors: execs, Workers: 2})
			var logged []time.Duration
			opts := RunOptions{ShardObserver: func(tool string, records int, elapsed time.Duration) {
				logged = append(logged, elapsed)
			}}
			if tc.pool != nil {
				opts.ShardPool = tc.pool
			}
			res, err := e.Run(context.Background(), w, &Dataset{Type: FASTQ}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := [4]int32{d.stream.Load(), d.split.Load(), d.transform.Load(), d.gather.Load()}; got != [4]int32{tc.streams, tc.streams, 3, 1} {
				t.Fatalf("Stream, Split, Transform, Gather calls = %v, want [%d %d 3 1]", got, tc.streams, tc.streams)
			}
			if tc.pool != nil && tc.pool.calls.Load() != 1 {
				t.Fatalf("ShardPool called %d times, want 1", tc.pool.calls.Load())
			}
			if sr := res.Stages[0]; sr.Shards != 3 || sr.Records != 15 {
				t.Fatalf("stage result = %+v, want 3 shards over 15 records", sr)
			}
			if len(logged) != 3 {
				t.Fatalf("%d shards logged, want 3", len(logged))
			}
			for _, el := range logged {
				if (el == fakeElapsed) != tc.remote {
					t.Fatalf("logged elapsed %v; remote pool ran the shards: %v", logged, tc.remote)
				}
			}
		})
	}
}

// TestBadReferenceFailsBeforeAnyShard: the align stream checks its
// reference before Split and builds the seed index only in Transform, so
// a reference with a non-ACGTN base still fails the run before any shard
// runs — on the local pool and on a shard pool, which is never called.
func TestBadReferenceFailsBeforeAnyShard(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool *fakePool
	}{{name: "local"}, {name: "shard-pool", pool: &fakePool{}}} {
		t.Run(tc.name, func(t *testing.T) {
			ds := synthDataset(t, 8000, 500, 31)
			ds.Reference.Seq = append([]byte(nil), ds.Reference.Seq...)
			ds.Reference.Seq[4000] = 'X'
			var shards atomic.Int32
			opts := RunOptions{ShardObserver: func(string, int, time.Duration) { shards.Add(1) }}
			if tc.pool != nil {
				opts.ShardPool = tc.pool
			}
			_, err := testEngine(t, 2).RunByName(context.Background(), "dna-variant-detection", ds, opts)
			if !errors.Is(err, align.ErrBadReference) {
				t.Fatalf("err = %v, want align.ErrBadReference", err)
			}
			if n := shards.Load(); n != 0 {
				t.Fatalf("%d shards ran over a bad reference", n)
			}
			if tc.pool != nil && tc.pool.calls.Load() != 0 {
				t.Fatalf("ShardPool called %d times, want 0", tc.pool.calls.Load())
			}
		})
	}
}

// wrongPool answers every shard of one stage with data, a well-formed
// payload of the wrong type (or none), and runs the other stages' shards
// as fakePool does.
type wrongPool struct {
	fakePool
	stage int
	data  any
}

func (p *wrongPool) RunShards(ctx context.Context, env *StageEnv, shards []StreamShard) ([]StreamShard, []time.Duration, error) {
	if env.StageIndex() != p.stage {
		return p.fakePool.RunShards(ctx, env, shards)
	}
	outs := make([]StreamShard, len(shards))
	for i := range outs {
		outs[i] = StreamShard{Records: 1, Data: p.data}
	}
	return outs, make([]time.Duration, len(shards)), nil
}

// TestGatherRejectsWrongPayload: every streaming family's Gather fails
// its run with an error naming the shard when a shard pool answers with a
// payload of the wrong type or none, instead of panicking the process.
func TestGatherRejectsWrongPayload(t *testing.T) {
	count := 7 // an Integrate shard's payload
	for _, tc := range []struct {
		workflow string
		stage    int
		in       func() *Dataset
		wrong    any
	}{
		{"dna-variant-detection", 0, func() *Dataset { return synthDataset(t, 3000, 300, 1) }, count},
		{"somatic-mutation-detection", 1, func() *Dataset { return synthDataset(t, 3000, 300, 1) }, count},
		{"rna-expression", 1, func() *Dataset { return synthDataset(t, 3000, 300, 1) }, count},
		{"proteome-gpm", 0, func() *Dataset { return mgfDataset(t, 5, 40, 1) }, count},
		{"cell-imaging", 0, func() *Dataset { d, _ := tiffDataset(t, 1, 4, 1); return d }, count},
		{"integrative-network", 0, func() *Dataset { return featureDataset(t, 40, 3, 1) }, AlignedShard{}},
	} {
		for _, data := range []any{tc.wrong, nil} {
			pool := &wrongPool{stage: tc.stage, data: data}
			_, err := testEngine(t, 2).RunByName(context.Background(), tc.workflow, tc.in(), RunOptions{ShardPool: pool})
			if err == nil || !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("%s, stage %d answered with %T: err = %v, want one naming shard 0", tc.workflow, tc.stage, data, err)
			}
		}
	}
}
