// Package knowledge implements SCAN's application knowledge base: an
// OWL-style ontology of applications, data formats, cloud resources and
// profiled runs, queried through SPARQL by the Data Broker to decide shard
// sizes, thread counts and worker shapes (Section III-A1 of the paper).
//
// The knowledge base is seeded by profiling ("initially created by
// profiling some of the most common genome applications") and then grows
// from the run logs of every task executed on the platform; regression over
// the accumulated observations recovers the per-stage (a, b, c) performance
// coefficients the scheduler's estimators use: FitStageModel evaluates the
// full model in SPARQL (experiment T2, linear in history); jobs read the
// cost oracle (cost.go), constant-time accumulators every fold maintains.
//
// Threads: daemon shards are single goroutines, so the daemon's run logs
// carry Threads: 1 only. Width is priced as shard count instead (StageRate
// decides whether a wave of the pool is worth splitting). FitStageModel and
// its Amdahl step, which needs multi-thread runs, stay as the
// paper-reproduction reference (scansim's T2, examples/knowledgebase), on
// no job's path.
package knowledge

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"scan/internal/gatk"
	"scan/internal/ontology"
	"scan/internal/sparql"
	"scan/internal/stats"
)

// NS is the SCAN ontology namespace (the paper's scan-ontology IRI).
const NS = "http://www.semanticweb.org/wxing/ontologies/scan-ontology#"

// Ontology property and class local names.
const (
	ClassApplication    = "Application"
	ClassGenomeAnalysis = "GenomeAnalysis"
	ClassRunLog         = "RunLog"

	PropInputFileSize = "inputFileSize"
	PropSteps         = "steps"
	PropRAM           = "RAM"
	PropCPU           = "CPU"
	PropETime         = "eTime"
	PropPerformance   = "performance"
	PropApplication   = "application"
	PropStage         = "stage"
	PropThreads       = "threads"
	PropFormat        = "inputFormat"
	PropShardSize     = "preferredShardSize"
)

// Base wraps the ontology graph with typed accessors and a lock, making it
// safe for the platform's concurrent workers to log runs. Three fast-path
// structures sit beside the graph: a materialized profile/advice cache
// invalidated by the profile epoch, a bounded run-log ingestion buffer
// folded in batches (both broker.go), and the cost oracle (cost.go).
type Base struct {
	mu    sync.RWMutex
	graph *ontology.Graph
	seq   int // run-log naming counter: always above every runNNNNNN name
	runs  int // RunLog individuals in the graph (naming can be sparse)

	// The cost oracle's accumulators (cost.go); linesMu is a leaf lock.
	linesMu sync.Mutex
	lines   map[StageRef]lineStats

	// Batched ingestion (broker.go). foldMu serializes folds so Flush is
	// a true barrier; ingestMu guards only the append buffer and is never
	// held while taking another lock.
	foldMu      sync.Mutex
	ingestMu    sync.Mutex
	pending     []RunLog
	flusherBusy atomic.Bool

	// durable is the attached WAL + snapshot state (wal.go), nil until
	// AttachStorage and after a persistence failure. Accessed only under
	// foldMu, the same lock that serializes the folds it journals.
	durable *storage

	// Materialized Data Broker cache (broker.go): an immutable snapshot
	// valid for one profile epoch, read lock-free on the hot path.
	// cacheMu serializes rebuilds only.
	cacheMu sync.Mutex
	cache   atomic.Pointer[adviceCache]

	// Advice-cache observability: ShardAdvice calls answered from the
	// published profile cache, and calls that rebuilt it. Scraped by
	// scand's /metrics; see CacheStats.
	cacheHits, cacheMisses atomic.Uint64

	// profileEpoch advances on every mutation that can change the
	// materialized profile list — AddProfile, Import, ontology seeding —
	// but NOT on run-log folds: RunLog individuals are typed scan:RunLog
	// (no subclass link to Application) and never match the profile query,
	// so pure telemetry ingestion leaves cached advice valid. Mutators
	// bump it while holding b.mu, so a reader under RLock sees a value
	// consistent with the graph it evaluates.
	profileEpoch atomic.Uint64
}

// New returns an empty knowledge base with the SCAN namespaces registered
// and the core classes declared.
func New() *Base {
	g := ontology.NewGraph()
	g.SetPrefix("scan", NS)
	g.SetPrefix("owl", "http://www.w3.org/2002/07/owl#")
	g.SetPrefix("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#")
	g.SetPrefix("rdfs", "http://www.w3.org/2000/01/rdf-schema#")
	g.DeclareClass(iri(ClassApplication))
	g.DeclareSubClass(iri(ClassGenomeAnalysis), iri(ClassApplication))
	g.DeclareClass(iri(ClassRunLog))
	for _, p := range []string{
		PropInputFileSize, PropSteps, PropRAM, PropCPU, PropETime,
		PropPerformance, PropStage, PropThreads, PropFormat, PropShardSize,
	} {
		g.DeclareDataProperty(iri(p))
	}
	g.DeclareObjectProperty(iri(PropApplication))
	return &Base{graph: g, lines: make(map[StageRef]lineStats)}
}

func iri(local string) ontology.Term { return ontology.NewIRI(NS + local) }

// AppProfile is one profiled application configuration — the paper's GATK1,
// GATK2, … individuals.
type AppProfile struct {
	Name          string // individual local name, e.g. "GATK1"
	InputFileSize float64
	Steps         int
	RAM           int
	CPU           int
	ETime         float64
	Performance   string // optional annotation, e.g. "good"
}

// AddProfile records an application profile as a named individual.
func (b *Base) AddProfile(p AppProfile) error {
	if p.Name == "" {
		return errors.New("knowledge: profile needs a name")
	}
	// runNNNNNN names belong to the run-log minter (see broker.go's naming
	// invariant); a profile squatting on one would have run-log triples
	// unioned onto it by a later LogRun.
	if _, isRun := parseRunName(p.Name); isRun {
		return fmt.Errorf("knowledge: profile name %q is reserved for run logs", p.Name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	props := map[ontology.Term]ontology.Term{
		iri(PropInputFileSize): ontology.NewFloat(p.InputFileSize),
		iri(PropSteps):         ontology.NewInt(int64(p.Steps)),
		iri(PropRAM):           ontology.NewInt(int64(p.RAM)),
		iri(PropCPU):           ontology.NewInt(int64(p.CPU)),
		iri(PropETime):         ontology.NewFloat(p.ETime),
	}
	if p.Performance != "" {
		props[iri(PropPerformance)] = ontology.NewString(p.Performance)
	}
	b.graph.AddIndividual(iri(p.Name), iri(ClassApplication), props)
	b.profileEpoch.Add(1)
	return nil
}

// SeedPaperProfiles loads the four GATK individuals from the paper's
// Section III-A1 RDF/OWL listings (inputFileSize, steps, RAM, eTime, CPU).
func (b *Base) SeedPaperProfiles() {
	for _, p := range []AppProfile{
		{Name: "GATK1", InputFileSize: 10, Steps: 1, RAM: 4, ETime: 180, CPU: 8},
		{Name: "GATK2", InputFileSize: 5, Steps: 1, RAM: 4, ETime: 200, CPU: 8},
		{Name: "GATK3", InputFileSize: 20, Steps: 1, RAM: 4, ETime: 280, CPU: 8},
		{Name: "GATK4", InputFileSize: 4, Steps: 1, RAM: 4, ETime: 80, CPU: 8},
	} {
		// Seed profiles are well-formed by construction.
		if err := b.AddProfile(p); err != nil {
			panic(err)
		}
	}
}

// SeedFamilyProfiles extends the seeded knowledge past the paper's GATK
// listings with one profiled configuration per non-genomic tool family
// (MaxQuant, GPM, CellProfiler, Cytoscape), grounding the Data Broker's
// advice for every catalogued workflow family the way "profiling some of
// the most common genome applications" grounds it for GATK. Every family
// profile's throughput sits below the GATK profiles' (and its eTime above
// GATK4's), so loading them changes no genomic recommendation.
func (b *Base) SeedFamilyProfiles() {
	for _, p := range []AppProfile{
		{Name: "MaxQuant1", InputFileSize: 6, Steps: 1, RAM: 8, ETime: 240, CPU: 8},
		{Name: "GPM1", InputFileSize: 5, Steps: 1, RAM: 4, ETime: 260, CPU: 4},
		{Name: "CellProfiler1", InputFileSize: 8, Steps: 1, RAM: 8, ETime: 320, CPU: 8},
		{Name: "Cytoscape1", InputFileSize: 4, Steps: 1, RAM: 4, ETime: 160, CPU: 4},
	} {
		// Seed profiles are well-formed by construction.
		if err := b.AddProfile(p); err != nil {
			panic(err)
		}
	}
}

// RunLog is one observed task execution, fed back into the knowledge base
// ("the knowledge base will be expanded by using information from logs of
// each task running on the SCAN platform").
type RunLog struct {
	App       string
	Stage     int
	InputSize float64
	Threads   int
	ETime     float64
}

func validateRun(l RunLog) error {
	if l.App == "" || l.Threads < 1 || l.ETime < 0 {
		return fmt.Errorf("knowledge: malformed run log %+v", l)
	}
	return nil
}

// addRunLocked names and inserts one observation and folds it into the
// cost oracle's accumulators; the caller holds b.mu.
func (b *Base) addRunLocked(l RunLog) {
	name := fmtRunName(b.seq)
	b.seq++
	b.runs++
	b.observeLocked(l)
	b.graph.AddIndividual(iri(name), iri(ClassRunLog), map[ontology.Term]ontology.Term{
		iri(PropApplication):   iri(l.App),
		iri(PropStage):         ontology.NewInt(int64(l.Stage)),
		iri(PropInputFileSize): ontology.NewFloat(l.InputSize),
		iri(PropThreads):       ontology.NewInt(int64(l.Threads)),
		iri(PropETime):         ontology.NewFloat(l.ETime),
	})
}

// LogRun records a run observation as a RunLog individual, synchronously.
// It is also a flush point: buffered asynchronous observations fold first,
// so individual naming preserves arrival order across the two paths. Hot
// paths (per-shard telemetry) should prefer LogRunAsync, which batches
// lock acquisitions.
func (b *Base) LogRun(l RunLog) error {
	if err := validateRun(l); err != nil {
		return err
	}
	b.foldMu.Lock()
	defer b.foldMu.Unlock()
	b.foldLocked(append(b.takePending(), l))
	return nil
}

// RunCount returns the number of accepted run observations: folded RunLog
// individuals plus observations still in the ingestion buffer. At any
// quiescent point (e.g. after Flush) it equals the number of RunLog
// individuals in the graph.
func (b *Base) RunCount() int {
	total, _ := b.RunCounts()
	return total
}

// Query evaluates a SPARQL query against the knowledge base. Buffered run
// observations are folded first, so queries always see complete telemetry.
func (b *Base) Query(src string) (*sparql.Results, error) {
	b.Flush()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sparql.Eval(b.graph, src)
}

// Profiles returns all application profiles, sorted by eTime then input
// size — the ranking the paper's Data Broker uses ("ranked according to the
// values of their execution time and the size of input files"). The list is
// served from the materialized cache and recomputed only when the graph has
// changed since it was built.
func (b *Base) Profiles() ([]AppProfile, error) {
	c, _, err := b.profileCache()
	if err != nil {
		return nil, err
	}
	// Callers may mutate the result; the cached slice is shared.
	return append([]AppProfile(nil), c.profiles...), nil
}

// profilesLocked evaluates the profile query; the caller holds b.mu.
func profilesLocked(g *ontology.Graph) ([]AppProfile, error) {
	res, err := sparql.Eval(g, `
PREFIX scan: <`+NS+`>
SELECT ?app ?size ?steps ?ram ?cpu ?time WHERE {
  ?app a scan:Application ;
       scan:inputFileSize ?size ;
       scan:steps ?steps ;
       scan:RAM ?ram ;
       scan:CPU ?cpu ;
       scan:eTime ?time .
}
ORDER BY ?time ?size`)
	if err != nil {
		return nil, err
	}
	out := make([]AppProfile, 0, res.Len())
	for _, row := range res.Rows {
		var p AppProfile
		p.Name = localName(row["app"])
		p.InputFileSize, _ = row["size"].AsFloat()
		if v, ok := row["steps"].AsInt(); ok {
			p.Steps = int(v)
		}
		if v, ok := row["ram"].AsInt(); ok {
			p.RAM = int(v)
		}
		if v, ok := row["cpu"].AsInt(); ok {
			p.CPU = int(v)
		}
		p.ETime, _ = row["time"].AsFloat()
		out = append(out, p)
	}
	return out, nil
}

func localName(t ontology.Term) string {
	if len(t.Value) > len(NS) && t.Value[:len(NS)] == NS {
		return t.Value[len(NS):]
	}
	return t.Value
}

// Advice is the Data Broker's sharding recommendation for one task.
type Advice struct {
	// ShardSize is the preferred input chunk size.
	ShardSize float64
	// Threads is the recommended per-task thread count.
	Threads int
	// BasedOn is the profile the recommendation derives from.
	BasedOn string
}

// ErrNoKnowledge is returned when no profile covers the request.
var ErrNoKnowledge = errors.New("knowledge: no applicable profile")

// ShardAdvice picks the best-throughput profile whose input size does not
// exceed the job's and recommends its configuration ("The Data Broker will
// query the SCAN knowledge-base to decide the suitable chunk size of input
// files of tasks whenever there is a new GATK task"). It is the platform's
// hottest read: it ranks the materialized profile cache, so a call costs
// no SPARQL evaluation and no graph lock until a write invalidates the
// epoch.
func (b *Base) ShardAdvice(jobSize float64) (Advice, error) {
	// Published caches are immutable and validated by the atomic epoch,
	// so concurrent readers of a fresh one never serialize here.
	c, stale, err := b.profileCache()
	if err != nil {
		return Advice{}, err
	}
	if stale {
		b.cacheMisses.Add(1)
	} else {
		b.cacheHits.Add(1)
	}
	return adviseFromProfiles(c.profiles, jobSize)
}

// CacheStats reports the advice cache's cumulative hit/miss counts: a hit
// is a ShardAdvice answered from the materialized profile cache, a miss
// found it stale and waited for its rebuild from SPARQL (profileCache).
// Monotonic; scraped by scand's /metrics.
func (b *Base) CacheStats() (hits, misses uint64) {
	return b.cacheHits.Load(), b.cacheMisses.Load()
}

// FitStageModel recovers a stage's (a, b, c) coefficients from the logged
// runs of one application stage — experiment T2's regression, evaluated in
// SPARQL over every matching RunLog individual. Single-thread runs at
// varied input sizes fit E(d) = a·d + b; multi-thread runs at a fixed size
// fit the Amdahl fraction c. The cost oracle (cost.go) is tested against
// it; it is on no job's path: each call flushes and evaluates its history.
func (b *Base) FitStageModel(app string, stage int) (gatk.StageModel, error) {
	b.Flush() // regression must see buffered observations
	b.mu.RLock()
	defer b.mu.RUnlock()
	res, err := sparql.Eval(b.graph, fmt.Sprintf(`
PREFIX scan: <%s>
SELECT ?size ?threads ?time WHERE {
  ?run a scan:RunLog ;
       scan:application scan:%s ;
       scan:stage %d ;
       scan:inputFileSize ?size ;
       scan:threads ?threads ;
       scan:eTime ?time .
}`, NS, app, stage))
	if err != nil {
		return gatk.StageModel{}, err
	}
	var xs, ys []float64 // single-thread size→time
	type sweep struct {
		threads []int
		times   []float64
	}
	bySize := map[float64]sweep{}
	for _, row := range res.Rows {
		size, _ := row["size"].AsFloat()
		tm, _ := row["time"].AsFloat()
		th, _ := row["threads"].AsInt()
		if th == 1 {
			xs = append(xs, size)
			ys = append(ys, tm)
		}
		sw := bySize[size]
		sw.threads = append(sw.threads, int(th))
		sw.times = append(sw.times, tm)
		bySize[size] = sw
	}
	line, err := stats.FitLine(xs, ys)
	if err != nil {
		return gatk.StageModel{}, fmt.Errorf("knowledge: fitting E(d) for %s stage %d: %w", app, stage, err)
	}
	// For the Amdahl fit use the most-sampled input size only, so the size
	// variation does not alias into the thread dimension; equally sampled
	// sizes tie-break on the smallest, keeping the fit deterministic.
	best, bestSize := sweep{}, 0.0
	for size, sw := range bySize {
		if n := len(sw.times) - len(best.times); n > 0 || (n == 0 && size < bestSize) {
			best, bestSize = sw, size
		}
	}
	c, err := stats.FitAmdahl(best.threads, best.times)
	if err != nil {
		return gatk.StageModel{}, fmt.Errorf("knowledge: fitting c for %s stage %d: %w", app, stage, err)
	}
	name := fmt.Sprintf("%s-stage%d", app, stage)
	return gatk.StageModel{Name: name, A: line.Slope, B: line.Intercept, C: c}, nil
}

// Export writes the knowledge base in the Turtle subset, folding buffered
// observations first so snapshots are complete.
func (b *Base) Export(w io.Writer) error {
	b.Flush()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.graph.Encode(w)
}

// ExportRDFXML writes the knowledge base in the paper's RDF/XML listing
// style (owl:NamedIndividual elements with &scan-ontology; entity refs).
func (b *Base) ExportRDFXML(w io.Writer) error {
	b.Flush()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.graph.EncodeRDFXML(w)
}

// Import merges a Turtle document into the knowledge base, atomically: the
// document decodes into a staging graph first, so a malformed document
// leaves the base untouched. Run-log observations cannot be silently
// merged in either direction: an imported runNNNNNN individual whose name
// collides with an existing individual carrying different values is
// renamed to a fresh individual (identical ones union to a no-op, keeping
// re-imports of the same snapshot idempotent), and the naming counter
// resumes above every name seen, so later LogRun calls mint fresh
// individuals. RunCount reflects the RunLog individuals actually present
// after the merge.
func (b *Base) Import(r io.Reader) error {
	staged := ontology.NewGraph()
	if err := staged.Decode(r); err != nil {
		return err
	}
	// Hold foldMu across merge + rescan so no fold can mint a name from
	// the stale counter in between.
	b.foldMu.Lock()
	defer b.foldMu.Unlock()
	b.foldLocked(b.takePending())
	b.mu.Lock()
	rename := b.runRenamesLocked(staged)
	for _, p := range staged.Prefixes() {
		if ns, ok := staged.Prefix(p); ok {
			b.graph.SetPrefix(p, ns)
		}
	}
	staged.ForEachMatch(nil, nil, nil, func(t ontology.Triple) bool {
		if s, ok := rename[t.S]; ok {
			t.S = s
		}
		if o, ok := rename[t.O]; ok {
			t.O = o
		}
		b.graph.Add(t)
		return true
	})
	b.rescanRunSeqLocked()
	runs := b.graph.SubjectsOfType(iri(ClassRunLog))
	b.runs = len(runs)
	b.rebuildLinesLocked(runs)
	// A document can carry anything, profiles included: conservatively
	// invalidate the materialized advice.
	b.profileEpoch.Add(1)
	b.mu.Unlock()
	// Imported triples are not in the WAL (it carries only run-log folds),
	// so an attached store must snapshot now or lose them to a restart.
	if b.durable != nil {
		if err := b.compact(b.durable); err != nil {
			b.disableStorage("post-import snapshot", err)
		}
	}
	return nil
}

// Len returns the number of triples stored (buffered observations are
// folded first).
func (b *Base) Len() int {
	b.Flush()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.graph.Len()
}

// Describe renders one individual (by local name) for inspection.
func (b *Base) Describe(local string) string {
	b.Flush()
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.graph.DescribeIndividual(iri(local))
}
