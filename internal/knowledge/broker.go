package knowledge

// This file is the Data Broker's fast path. The paper has the broker
// consult the knowledge base "whenever there is a new GATK task"; done
// naively that is one SPARQL evaluation over the whole (unboundedly
// growing) triple graph per task, plus one write-lock acquisition per
// shard for telemetry — the platform-wide contention point under heavy
// traffic. Two mechanisms make the hot path O(1) amortized:
//
//   - A materialized profile cache. Profiles are computed from SPARQL once
//     per *profile epoch* (Base.profileEpoch advances on every mutation
//     that can change the profile list — AddProfile, Import, ontology
//     seeding), and each advice call ranks them afresh: ranking the eight
//     seeded profiles takes about 15 ns on a 2 vCPU Xeon host, so a
//     per-job-size advice memo would cost more than it saves.
//     Run-log folds deliberately do not advance it: a RunLog individual is
//     typed scan:RunLog with no subclass link to Application, so it can
//     never match the profile query — pure telemetry ingestion leaves the
//     materialized list valid instead of forcing a SPARQL re-evaluation
//     per fold (the ROADMAP's profile-only-epoch follow-up).
//
//   - Batched asynchronous run-log ingestion. LogRunAsync appends to a
//     bounded in-memory buffer; once a batch accumulates (or FoldSoon asks
//     early), a background flusher folds the whole batch into the graph
//     under a single lock acquisition. Flush folds synchronously and is
//     the barrier callers (rpc.Server.Close, core.Platform, tests) use;
//     every read API that must see complete telemetry (Query,
//     FitStageModel, Export, Len, …) flushes first, so buffered
//     observations are never visible as "lost".
//     (The cost oracle, cost.go, is fed by the same fold; its reads do not.)
//
// Invariants:
//
//   - After Flush returns, every observation accepted by LogRun/LogRunAsync
//     before the call is folded into the graph.
//   - RunCount always equals folded + buffered observations, so accounting
//     is exact at any quiescent point.
//   - Cache reads never return a view older than the profile epoch they
//     validated against; any profile-affecting mutation (AddProfile,
//     Import, seeding) bumps the epoch and forces recomputation on the
//     next advice call, while run-log folds reuse the materialized list.

import (
	"fmt"

	"scan/internal/ontology"
)

const (
	// ingestBatchSize is the buffered-observation count that wakes the
	// background flusher.
	ingestBatchSize = 256
	// ingestMaxBuffer bounds the buffer: an appender that finds it full
	// folds synchronously (backpressure) instead of growing it further.
	ingestMaxBuffer = 1 << 16
)

// adviceCache is the materialized Data Broker state for one profile epoch.
// A published cache is immutable, so the lock-free path in ShardAdvice
// never races a mutation.
type adviceCache struct {
	epoch    uint64       // Base.profileEpoch at materialization
	profiles []AppProfile // Profiles() order: eTime, then input size
}

// LogRunAsync validates and buffers one run observation for batched
// ingestion. The observation becomes visible to queries after the next
// fold — triggered by a full batch, any flushing read, or an explicit
// Flush — and is counted by RunCount immediately. Validation errors are
// reported synchronously, exactly as LogRun reports them.
func (b *Base) LogRunAsync(l RunLog) error {
	if err := validateRun(l); err != nil {
		return err
	}
	b.ingestMu.Lock()
	b.pending = append(b.pending, l)
	n := len(b.pending)
	b.ingestMu.Unlock()
	switch {
	case n >= ingestMaxBuffer:
		b.Flush() // backpressure: the appender pays for the fold
	case n >= ingestBatchSize:
		b.FoldSoon()
	}
	return nil
}

// Flush folds every buffered observation into the graph under one lock
// acquisition. It is the write barrier of the ingestion pipeline: when it
// returns, all observations accepted before the call are queryable. Safe
// for concurrent use; a no-op when nothing is buffered.
func (b *Base) Flush() {
	b.foldMu.Lock()
	defer b.foldMu.Unlock()
	b.foldLocked(b.takePending())
}

// PendingLogs reports how many accepted observations are buffered but not
// yet folded into the graph.
func (b *Base) PendingLogs() int {
	b.ingestMu.Lock()
	defer b.ingestMu.Unlock()
	return len(b.pending)
}

// RunCounts returns the total accepted observations and the buffered
// subset as one consistent snapshot: pending is always <= total, so
// callers reporting both (e.g. the daemon's status endpoint) can derive
// the folded count by subtraction. Reading them via separate RunCount and
// PendingLogs calls admits a fold or append between the two. The folded
// part counts RunLog individuals, not minted names, so sparse imported
// naming (e.g. a snapshot holding only run000999) cannot inflate it.
func (b *Base) RunCounts() (total, pending int) {
	b.foldMu.Lock()
	defer b.foldMu.Unlock()
	b.mu.RLock()
	total = b.runs
	b.mu.RUnlock()
	b.ingestMu.Lock()
	pending = len(b.pending)
	b.ingestMu.Unlock()
	return total + pending, pending
}

// takePending swaps out the buffered batch.
func (b *Base) takePending() []RunLog {
	b.ingestMu.Lock()
	batch := b.pending
	b.pending = nil
	b.ingestMu.Unlock()
	return batch
}

// foldLocked folds a batch of observations into the graph under a single
// write-lock acquisition. The caller must hold foldMu, which serializes
// folds so a Flush cannot return while another fold still holds a swapped
// batch. With storage attached (wal.go) the batch is appended and fsynced
// to the WAL before it touches the graph — every ingestion path funnels
// through here, so this one hook makes Flush an on-disk barrier — and a
// snapshot compacts the log once enough records accumulate. Storage
// failures disable persistence rather than rejecting the fold.
func (b *Base) foldLocked(batch []RunLog) {
	if len(batch) == 0 {
		return
	}
	if d := b.durable; d != nil {
		if err := d.appendBatch(batch); err != nil {
			b.disableStorage("wal append", err)
		}
	}
	b.mu.Lock()
	for _, l := range batch {
		b.addRunLocked(l)
	}
	b.mu.Unlock()
	if d := b.durable; d != nil {
		if err := b.maybeSnapshot(d); err != nil {
			b.disableStorage("snapshot", err)
		}
	}
}

// FoldSoon starts the background flusher unless one is already running, and
// returns at once; it is no barrier. The flusher drains the buffer and
// exits; it re-arms itself while full batches keep arriving, so at most one
// fold goroutine exists per Base and none linger when ingestion stops.
// LogRunAsync calls it once a batch accumulates; the engine calls it early
// so a stage's first telemetry reaches StageRate promptly.
func (b *Base) FoldSoon() {
	if !b.flusherBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for {
			b.Flush()
			b.flusherBusy.Store(false)
			// Re-check: appends that raced the Store would have lost
			// their CAS and gone unserviced otherwise.
			if b.PendingLogs() < ingestBatchSize || !b.flusherBusy.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// currentCache returns a published cache valid for the current profile
// epoch, or nil. The epoch is atomic and a published cache is immutable,
// so this is safe without any lock: matching epochs mean no profile-
// affecting mutation since the cache's view was snapshotted (run-log folds
// never bump it).
func (b *Base) currentCache() *adviceCache {
	if c := b.cache.Load(); c != nil && c.epoch == b.profileEpoch.Load() {
		return c
	}
	return nil
}

// profileCache returns a cache valid for the current profile epoch, and
// whether the published one was stale: a profile-affecting write has
// occurred since its build, so the profile list is rebuilt from SPARQL.
// cacheMu serializes rebuilds, so concurrent callers rebuild it once.
func (b *Base) profileCache() (*adviceCache, bool, error) {
	if c := b.currentCache(); c != nil {
		return c, false, nil
	}
	b.cacheMu.Lock()
	defer b.cacheMu.Unlock()
	// Snapshot epoch and evaluate in one read-critical section (mutators
	// bump the epoch while holding the write lock), so the cached view
	// corresponds exactly to the recorded epoch.
	b.mu.RLock()
	if c := b.currentCache(); c != nil {
		b.mu.RUnlock()
		return c, true, nil
	}
	epoch := b.profileEpoch.Load()
	ps, err := profilesLocked(b.graph)
	b.mu.RUnlock()
	if err != nil {
		return nil, true, err
	}
	c := &adviceCache{epoch: epoch, profiles: ps}
	b.cache.Store(c)
	return c, true, nil
}

// adviseFromProfiles is the Data Broker's ranking over an already-sorted
// profile list (Profiles() order: eTime, then input size): pick the
// best-throughput profile that fits the job, falling back to the overall
// fastest profile with the whole job as one chunk.
func adviseFromProfiles(profiles []AppProfile, jobSize float64) (Advice, error) {
	if len(profiles) == 0 {
		return Advice{}, ErrNoKnowledge
	}
	best := -1
	bestThroughput := 0.0
	for i, p := range profiles {
		if p.ETime <= 0 || p.InputFileSize <= 0 {
			continue
		}
		if p.InputFileSize > jobSize {
			continue // chunk larger than the whole job is useless
		}
		tp := p.InputFileSize / p.ETime
		if best < 0 || tp > bestThroughput {
			best, bestThroughput = i, tp
		}
	}
	if best < 0 {
		// Every profile is larger than the job: shard size = whole job,
		// configuration from the overall fastest profile — the first
		// entry, since the list arrives eTime-sorted.
		p := profiles[0]
		return Advice{ShardSize: jobSize, Threads: p.CPU, BasedOn: p.Name}, nil
	}
	p := profiles[best]
	return Advice{ShardSize: p.InputFileSize, Threads: p.CPU, BasedOn: p.Name}, nil
}

// maxRunName returns the highest runNNNNNN number appearing anywhere in
// the graph — subject or object position, any type — or -1. Any run-named
// term must reserve its name: minting it later would union run-log triples
// onto whatever it denotes. Full triple scan; import-path only.
func maxRunName(g *ontology.Graph) int {
	max := -1
	g.ForEachMatch(nil, nil, nil, func(t ontology.Triple) bool {
		if n, ok := parseRunName(localName(t.S)); ok && n > max {
			max = n
		}
		if n, ok := parseRunName(localName(t.O)); ok && n > max {
			max = n
		}
		return true
	})
	return max
}

// rescanRunSeqLocked resumes the run-log naming counter above every
// run-named term present in the graph. The caller must hold b.mu.
func (b *Base) rescanRunSeqLocked() {
	if m := maxRunName(b.graph); m >= b.seq {
		b.seq = m + 1
	}
}

// runRenamesLocked maps staged RunLog individuals whose names collide with
// existing individuals carrying different property values onto fresh
// names, so an import can never fold two distinct observations into one
// individual. Individuals whose triples all already exist merge as no-ops
// (idempotent re-import) and are not renamed. The caller holds b.mu.
func (b *Base) runRenamesLocked(staged *ontology.Graph) map[ontology.Term]ontology.Term {
	var colliding []ontology.Term
	// Rename targets must dodge every reserved name: those of this base
	// (< b.seq by the naming invariant) and every run-named term anywhere
	// in the incoming document — RunLog or not, subject or object — else a
	// renamed observation would union onto an unrelated staged individual.
	next := b.seq
	if m := maxRunName(staged); m >= next {
		next = m + 1
	}
	for _, s := range staged.SubjectsOfType(iri(ClassRunLog)) {
		if _, ok := parseRunName(localName(s)); !ok {
			continue
		}
		exists := false
		b.graph.ForEachMatch(&s, nil, nil, func(ontology.Triple) bool {
			exists = true
			return false
		})
		if !exists {
			continue
		}
		conflict := false
		staged.ForEachMatch(&s, nil, nil, func(t ontology.Triple) bool {
			if !b.graph.Has(t) {
				conflict = true
				return false
			}
			return true
		})
		if conflict {
			colliding = append(colliding, s)
		}
	}
	if len(colliding) == 0 {
		return nil
	}
	// SubjectsOfType is sorted, so renaming is deterministic.
	rename := make(map[ontology.Term]ontology.Term, len(colliding))
	for _, s := range colliding {
		rename[s] = iri(fmtRunName(next))
		next++
	}
	return rename
}

// fmtRunName renders the canonical run-log individual name.
func fmtRunName(n int) string { return fmt.Sprintf("run%06d", n) }

// parseRunName extracts N from a "runNNNNNN" local name.
func parseRunName(local string) (int, bool) {
	const prefix = "run"
	if len(local) <= len(prefix) || local[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, r := range local[len(prefix):] {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	return n, true
}
