package knowledge

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func runCountSPARQL(t *testing.T, b *Base) int {
	t.Helper()
	res, err := b.Query(`
PREFIX scan: <` + NS + `>
SELECT ?run WHERE { ?run a scan:RunLog . }`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Len()
}

// TestImportResumesRunSeq is the regression test for Import reusing
// run-log individual names: importing a snapshot that already contains
// runNNNNNN individuals must resume the counter above the highest one, so
// later LogRun calls mint fresh individuals instead of silently merging
// distinct observations into imported ones.
func TestImportResumesRunSeq(t *testing.T) {
	src := New()
	src.SeedPaperProfiles()
	for i := 0; i < 3; i++ {
		if err := src.LogRun(RunLog{App: "GATK1", Stage: i, InputSize: 5, Threads: 1, ETime: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New()
	if err := dst.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if got := dst.RunCount(); got != 3 {
		t.Fatalf("RunCount after import = %d, want 3", got)
	}
	// A fresh observation must get a new individual, not overwrite
	// run000000..run000002.
	if err := dst.LogRun(RunLog{App: "GATK1", Stage: 9, InputSize: 7, Threads: 2, ETime: 42}); err != nil {
		t.Fatal(err)
	}
	if got := dst.RunCount(); got != 4 {
		t.Fatalf("RunCount after import+log = %d, want 4", got)
	}
	if got := runCountSPARQL(t, dst); got != 4 {
		t.Fatalf("SPARQL sees %d distinct run individuals, want 4", got)
	}
	desc := dst.Describe("run000003")
	if !strings.Contains(desc, "scan:eTime 42") {
		t.Fatalf("new observation not at run000003:\n%s", desc)
	}
}

func TestParseRunName(t *testing.T) {
	for name, want := range map[string]int{
		"run000000": 0, "run000123": 123, "run1234567": 1234567,
	} {
		if n, ok := parseRunName(name); !ok || n != want {
			t.Errorf("parseRunName(%q) = %d, %v", name, n, ok)
		}
	}
	for _, name := range []string{"run", "run12x", "GATK1", "runner1"} {
		if _, ok := parseRunName(name); ok {
			t.Errorf("parseRunName(%q) accepted", name)
		}
	}
}

func TestLogRunAsyncValidation(t *testing.T) {
	b := New()
	if err := b.LogRunAsync(RunLog{App: "", Threads: 1}); err == nil {
		t.Fatal("empty app accepted")
	}
	if err := b.LogRunAsync(RunLog{App: "GATK", Threads: 1, ETime: -1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if b.RunCount() != 0 {
		t.Fatalf("rejected observations counted: %d", b.RunCount())
	}
}

func TestBatchedIngestFlush(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	const n = ingestBatchSize*2 + 17 // crosses the background-fold trigger
	for i := 0; i < n; i++ {
		if err := b.LogRunAsync(RunLog{
			App: "GATK1", Stage: i % 3, InputSize: float64(i%9) + 1,
			Threads: 1, ETime: float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Accounting is exact even before the fold completes.
	if got := b.RunCount(); got != n {
		t.Fatalf("RunCount = %d, want %d", got, n)
	}
	b.Flush()
	if got := b.PendingLogs(); got != 0 {
		t.Fatalf("PendingLogs after Flush = %d", got)
	}
	if got := runCountSPARQL(t, b); got != n {
		t.Fatalf("SPARQL sees %d runs after Flush, want %d", got, n)
	}
}

// TestReadsFlushPendingObservations: every read that must see complete
// telemetry acts as a flush barrier, so a small batch below the background
// trigger is never invisible.
func TestReadsFlushPendingObservations(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	for i := 0; i < 3; i++ {
		if err := b.LogRunAsync(RunLog{App: "GATK1", Stage: 0, InputSize: 5, Threads: 1, ETime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.PendingLogs(); got != 3 {
		t.Fatalf("PendingLogs = %d, want 3 (below batch trigger)", got)
	}
	if got := runCountSPARQL(t, b); got != 3 { // Query flushes
		t.Fatalf("SPARQL sees %d runs, want 3", got)
	}
	if got := b.PendingLogs(); got != 0 {
		t.Fatalf("PendingLogs after flushing read = %d", got)
	}
}

// TestAdviceCacheInvalidation: cached advice must change when a profile
// write advances the graph epoch.
func TestAdviceCacheInvalidation(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	adv, err := b.ShardAdvice(25)
	if err != nil {
		t.Fatal(err)
	}
	if adv.BasedOn != "GATK3" {
		t.Fatalf("advice = %+v, want GATK3", adv)
	}
	// Same answer from the memo.
	again, err := b.ShardAdvice(25)
	if err != nil || again != adv {
		t.Fatalf("memoized advice = %+v, %v", again, err)
	}
	// A new, higher-throughput profile must win immediately.
	if err := b.AddProfile(AppProfile{
		Name: "GATK5", InputFileSize: 24, Steps: 1, RAM: 4, ETime: 60, CPU: 16,
	}); err != nil {
		t.Fatal(err)
	}
	adv, err = b.ShardAdvice(25)
	if err != nil {
		t.Fatal(err)
	}
	if adv.BasedOn != "GATK5" || adv.Threads != 16 {
		t.Fatalf("advice after profile write = %+v, want GATK5", adv)
	}
	// Run logs are not profiles; advice must stay correct and stable
	// across folds (which no longer touch the profile epoch at all — see
	// TestRunFoldKeepsMaterializedProfiles).
	for i := 0; i < ingestBatchSize+1; i++ {
		if err := b.LogRunAsync(RunLog{App: "GATK5", Stage: 0, InputSize: 5, Threads: 1, ETime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	adv2, err := b.ShardAdvice(25)
	if err != nil || adv2 != adv {
		t.Fatalf("advice after ingest = %+v, %v; want %+v", adv2, err, adv)
	}
}

// TestRunFoldKeepsMaterializedProfiles is the profile-only-epoch proof:
// folding run-log telemetry — the platform's highest-frequency write — must
// not invalidate the materialized profile cache, so the fold after every
// batch no longer forces a SPARQL re-evaluation on the next advice call. A
// profile write still must.
func TestRunFoldKeepsMaterializedProfiles(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	if _, err := b.ShardAdvice(25); err != nil {
		t.Fatal(err)
	}
	before := b.cache.Load()
	if before == nil {
		t.Fatal("advice did not materialize a cache")
	}
	// Fold several full batches of telemetry.
	for i := 0; i < 3*ingestBatchSize; i++ {
		if err := b.LogRunAsync(RunLog{App: "GATK1", Stage: i % 7, InputSize: 5, Threads: 1, ETime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	if adv, err := b.ShardAdvice(25); err != nil || adv.BasedOn != "GATK3" {
		t.Fatalf("advice after folds = %+v, %v", adv, err)
	}
	// Pointer identity: the memo hit served from the same immutable cache,
	// no re-materialization happened.
	if after := b.cache.Load(); after != before {
		t.Fatal("run-log fold re-materialized the profile cache")
	}
	// A profile write invalidates as before.
	if err := b.AddProfile(AppProfile{Name: "GATK9", InputFileSize: 24, ETime: 60, CPU: 16}); err != nil {
		t.Fatal(err)
	}
	if adv, err := b.ShardAdvice(25); err != nil || adv.BasedOn != "GATK9" {
		t.Fatalf("advice after profile write = %+v, %v", adv, err)
	}
	if after := b.cache.Load(); after == before {
		t.Fatal("profile write did not re-materialize the cache")
	}
}

// TestFamilyProfilesGroundAdvice: the family seed extends the Data Broker's
// knowledge to the proteomic/imaging/integrative tools without disturbing a
// single genomic recommendation — family throughputs sit strictly below the
// GATK profiles'.
func TestFamilyProfilesGroundAdvice(t *testing.T) {
	gatkOnly := New()
	gatkOnly.SeedPaperProfiles()
	b := New()
	b.SeedPaperProfiles()
	b.SeedFamilyProfiles()

	ps, err := b.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 8 {
		t.Fatalf("profiles = %d, want 4 GATK + 4 family", len(ps))
	}
	families := map[string]bool{}
	for _, p := range ps {
		families[p.Name] = true
	}
	for _, name := range []string{"MaxQuant1", "GPM1", "CellProfiler1", "Cytoscape1"} {
		if !families[name] {
			t.Errorf("family profile %s missing", name)
		}
	}
	// Genomic advice is identical with and without the family seed, at
	// every job-size regime (fallback, GATK4's band, GATK1's, GATK3's).
	for _, jobSize := range []float64{0.5, 2, 4, 7, 10, 15, 25, 100} {
		want, err := gatkOnly.ShardAdvice(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.ShardAdvice(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("jobSize %v: family seed changed genomic advice: %+v vs %+v", jobSize, got, want)
		}
	}
	// Family telemetry accumulates under the family tool names and is
	// regression-fittable exactly like GATK's (experiment T2's loop).
	for _, d := range []float64{1, 3, 5, 7, 9} {
		if err := b.LogRunAsync(RunLog{App: "MaxQuant", Stage: 0, InputSize: d, Threads: 1, ETime: 3*d + 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, th := range []int{2, 4, 8} {
		if err := b.LogRunAsync(RunLog{App: "MaxQuant", Stage: 0, InputSize: 5, Threads: th, ETime: 17 / float64(th)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := b.FitStageModel("MaxQuant", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.A < 2.5 || m.A > 3.5 {
		t.Fatalf("recovered MaxQuant slope = %v, want ~3", m.A)
	}
}

// TestConcurrentAsyncIngest hammers the batched path from many goroutines
// (run with -race): no observation may be lost, RunCount must be exact
// after Flush, and advice must be stable throughout.
func TestConcurrentAsyncIngest(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	wantAdv, err := b.ShardAdvice(25)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := b.LogRunAsync(RunLog{
					App: "GATK1", Stage: i % 7, InputSize: float64(i%9) + 1,
					Threads: 1 << (i % 4), ETime: float64(i),
				}); err != nil {
					t.Error(err)
					return
				}
				if adv, err := b.ShardAdvice(float64(i%20) + 10); err != nil {
					t.Error(err)
					return
				} else if adv.BasedOn == "" {
					t.Error("empty advice")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.Flush()
	if got := b.RunCount(); got != workers*perW {
		t.Fatalf("RunCount = %d, want %d", got, workers*perW)
	}
	if got := runCountSPARQL(t, b); got != workers*perW {
		t.Fatalf("SPARQL sees %d runs, want %d (observations lost or merged)", got, workers*perW)
	}
	if adv, err := b.ShardAdvice(25); err != nil || adv != wantAdv {
		t.Fatalf("advice drifted under ingest: %+v, %v; want %+v", adv, err, wantAdv)
	}
}

// TestIngestBackpressure: an appender that fills the buffer to its bound
// folds synchronously instead of growing it without limit.
func TestIngestBackpressure(t *testing.T) {
	b := New()
	// Defeat the background flusher by writing from one goroutine as fast
	// as possible; the max-buffer fold keeps pending bounded regardless.
	for i := 0; i < ingestMaxBuffer+10; i++ {
		if err := b.LogRunAsync(RunLog{App: "GATK1", Stage: 0, InputSize: 1, Threads: 1, ETime: 1}); err != nil {
			t.Fatal(err)
		}
		// Sampled check: PendingLogs takes the ingest lock, so probing on
		// every append would measure contention, not the bound.
		if i%1024 == 0 {
			if got := b.PendingLogs(); got > ingestMaxBuffer {
				t.Fatalf("pending buffer grew past its bound: %d", got)
			}
		}
	}
	b.Flush()
	if got := b.RunCount(); got != ingestMaxBuffer+10 {
		t.Fatalf("RunCount = %d, want %d", got, ingestMaxBuffer+10)
	}
}

func TestFitStageModelSeesBufferedRuns(t *testing.T) {
	b := New()
	for _, d := range []float64{1, 3, 5, 7, 9} {
		if err := b.LogRunAsync(RunLog{App: "GATK", Stage: 0, InputSize: d, Threads: 1, ETime: 2*d + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, th := range []int{2, 4, 8} {
		if err := b.LogRunAsync(RunLog{App: "GATK", Stage: 0, InputSize: 5, Threads: th, ETime: 11 / float64(th)}); err != nil {
			t.Fatal(err)
		}
	}
	// All observations are still buffered; the regression must see them.
	m, err := b.FitStageModel("GATK", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.A < 1.5 || m.A > 2.5 {
		t.Fatalf("recovered a = %v, want ~2", m.A)
	}
}

func ExampleBase_LogRunAsync() {
	kb := New()
	kb.SeedPaperProfiles()
	for i := 0; i < 3; i++ {
		_ = kb.LogRunAsync(RunLog{App: "GATK1", Stage: i, InputSize: 5, Threads: 1, ETime: 2})
	}
	kb.Flush()
	fmt.Println(kb.RunCount())
	// Output: 3
}

// TestImportRenamesCollidingObservations: importing a snapshot whose
// runNNNNNN names collide with runs this base already logged must rename
// the incoming observations, not set-union two distinct observations into
// one multi-valued individual.
func TestImportRenamesCollidingObservations(t *testing.T) {
	src := New()
	for i := 0; i < 3; i++ {
		if err := src.LogRun(RunLog{App: "GATK2", Stage: i, InputSize: 9, Threads: 2, ETime: 100 + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}

	dst := New()
	for i := 0; i < 3; i++ { // same names run000000..run000002, different values
		if err := dst.LogRun(RunLog{App: "GATK1", Stage: i, InputSize: 5, Threads: 1, ETime: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Import(&snap); err != nil {
		t.Fatal(err)
	}
	if got := dst.RunCount(); got != 6 {
		t.Fatalf("RunCount = %d, want 6 (three local + three imported)", got)
	}
	if got := runCountSPARQL(t, dst); got != 6 {
		t.Fatalf("SPARQL sees %d run individuals, want 6", got)
	}
	// No individual may carry two eTime values (the merge corruption).
	res, err := dst.Query(`
PREFIX scan: <` + NS + `>
SELECT ?run ?t WHERE { ?run a scan:RunLog ; scan:eTime ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, row := range res.Rows {
		seen[row["run"].Value]++
	}
	for run, n := range seen {
		if n != 1 {
			t.Fatalf("individual %s carries %d eTime values: observations were merged", run, n)
		}
	}
	// And the next minted name must not collide with any of the six.
	if err := dst.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: 1, Threads: 1, ETime: 1}); err != nil {
		t.Fatal(err)
	}
	if got := dst.RunCount(); got != 7 {
		t.Fatalf("RunCount after post-import log = %d, want 7", got)
	}
}

// TestImportIdempotent: re-importing the same snapshot is a no-op — the
// union merges identical individuals without renaming or double counting.
func TestImportIdempotent(t *testing.T) {
	src := New()
	src.SeedPaperProfiles()
	for i := 0; i < 2; i++ {
		if err := src.LogRun(RunLog{App: "GATK1", Stage: i, InputSize: 3, Threads: 1, ETime: 7}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}
	doc := snap.String()

	dst := New()
	for _, pass := range []int{1, 2} {
		if err := dst.Import(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if got := dst.RunCount(); got != 2 {
			t.Fatalf("RunCount after import pass %d = %d, want 2", pass, got)
		}
	}
	if got := dst.Len(); got != src.Len() {
		t.Fatalf("triples after double import = %d, want %d", got, src.Len())
	}
}

// TestImportSparseRunNames: RunCount counts individuals, not minted names,
// so a snapshot holding only run000999 contributes one run — while the
// naming counter still resumes above 999.
func TestImportSparseRunNames(t *testing.T) {
	doc := `@prefix scan: <` + NS + `> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
scan:run000999 rdf:type owl:NamedIndividual ;
    rdf:type scan:RunLog ;
    scan:application scan:GATK1 ;
    scan:stage 1 ;
    scan:inputFileSize 5.0 ;
    scan:threads 1 ;
    scan:eTime 2.5 .
`
	b := New()
	if err := b.Import(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := b.RunCount(); got != 1 {
		t.Fatalf("RunCount = %d, want 1 (sparse naming must not inflate the count)", got)
	}
	if err := b.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: 1, Threads: 1, ETime: 1}); err != nil {
		t.Fatal(err)
	}
	if got := b.RunCount(); got != 2 {
		t.Fatalf("RunCount after log = %d, want 2", got)
	}
	if desc := b.Describe("run001000"); !strings.Contains(desc, "scan:RunLog") {
		t.Fatalf("new observation did not resume naming above the imported run:\n%s", desc)
	}
}

// TestImportMalformedIsAtomic: a document that fails to parse leaves the
// base untouched (staging-graph import).
func TestImportMalformedIsAtomic(t *testing.T) {
	b := New()
	b.SeedPaperProfiles()
	before := b.Len()
	doc := `@prefix scan: <` + NS + `> .
scan:run000001 rdf:type scan:RunLog ;
    scan:eTime "unterminated
`
	if err := b.Import(strings.NewReader(doc)); err == nil {
		t.Fatal("malformed document accepted")
	}
	if got := b.Len(); got != before {
		t.Fatalf("partial import leaked %d triples into the base", got-before)
	}
}

// TestImportReservesRunNamesOfAnyType: a runNNNNNN-named individual of a
// non-RunLog class still reserves its name — later mints must not union
// run-log triples onto it.
func TestImportReservesRunNamesOfAnyType(t *testing.T) {
	doc := `@prefix scan: <` + NS + `> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
scan:run000002 rdf:type owl:NamedIndividual ;
    rdf:type scan:Application ;
    scan:inputFileSize 10.0 ;
    scan:steps 1 ;
    scan:RAM 4 ;
    scan:CPU 8 ;
    scan:eTime 180.0 .
`
	b := New()
	if err := b.Import(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := b.RunCount(); got != 0 {
		t.Fatalf("RunCount = %d, want 0 (imported individual is not a run)", got)
	}
	for i := 0; i < 4; i++ {
		if err := b.LogRun(RunLog{App: "GATK1", Stage: i, InputSize: 1, Threads: 1, ETime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.RunCount(); got != 4 {
		t.Fatalf("RunCount = %d, want 4", got)
	}
	if got := runCountSPARQL(t, b); got != 4 {
		t.Fatalf("SPARQL sees %d runs, want 4", got)
	}
	// The application individual must not have been turned into a run.
	if desc := b.Describe("run000002"); strings.Contains(desc, "scan:RunLog") {
		t.Fatalf("run-log triples were merged onto the imported application:\n%s", desc)
	}
}

// TestImportRenameDodgesStagedNonRunIndividuals is the regression test for
// rename-target allocation: a conflicting imported run log must not be
// renamed onto a staged non-RunLog individual that happens to carry the
// next run name.
func TestImportRenameDodgesStagedNonRunIndividuals(t *testing.T) {
	dst := New()
	if err := dst.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: 5, Threads: 1, ETime: 1}); err != nil {
		t.Fatal(err)
	}
	// run000000 conflicts with dst's; run000001 is an Application squatting
	// on the naive next rename target.
	doc := `@prefix scan: <` + NS + `> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
scan:run000000 rdf:type owl:NamedIndividual ;
    rdf:type scan:RunLog ;
    scan:application scan:GATK9 ;
    scan:stage 4 ;
    scan:inputFileSize 8.0 ;
    scan:threads 2 ;
    scan:eTime 99.0 .
scan:run000001 rdf:type owl:NamedIndividual ;
    rdf:type scan:Application ;
    scan:inputFileSize 10.0 ;
    scan:steps 1 ;
    scan:RAM 4 ;
    scan:CPU 8 ;
    scan:eTime 180.0 .
`
	if err := dst.Import(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := dst.RunCount(); got != 2 {
		t.Fatalf("RunCount = %d, want 2", got)
	}
	// The squatted Application individual must be untouched...
	if desc := dst.Describe("run000001"); strings.Contains(desc, "scan:RunLog") ||
		strings.Contains(desc, "scan:stage") {
		t.Fatalf("renamed observation merged onto the staged application:\n%s", desc)
	}
	// ...and the conflicting observation lives beyond it, intact.
	if desc := dst.Describe("run000002"); !strings.Contains(desc, "scan:eTime 99") {
		t.Fatalf("conflicting observation not renamed past the squatter:\n%s", desc)
	}
}

// TestRunNamesReservedForMinter: profile and workflow individuals cannot
// squat on runNNNNNN names — a later LogRun minting that name would union
// run-log triples onto them.
func TestRunNamesReservedForMinter(t *testing.T) {
	b := New()
	if err := b.AddProfile(AppProfile{Name: "run000000", InputFileSize: 1, ETime: 1, CPU: 1}); err == nil {
		t.Fatal("run-shaped profile name accepted")
	}
	if err := b.AddWorkflowIndividual("run000001", "genomic", 1, "FASTQ", "VCF"); err == nil {
		t.Fatal("run-shaped workflow name accepted")
	}
	if err := b.AddProfile(AppProfile{Name: "GATK1", InputFileSize: 1, ETime: 1, CPU: 1}); err != nil {
		t.Fatal(err)
	}
}
