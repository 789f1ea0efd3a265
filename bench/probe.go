package main

// Layer probes: direct calls into the public functions of the layers a job
// does not call on its own path, made after the traced phase on the
// workload's own platform (so the knowledge base has the workload's size)
// and on the workload's own payloads.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"scan/internal/blobstore"
	"scan/internal/core"
	"scan/internal/knowledge"
	"scan/internal/registry"
	"scan/internal/rpc"
	"scan/internal/tenant"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}

// probeLayers fills the probe-derived metrics. A probe that cannot run
// leaves its metrics at 0 and says why on standard error.
func (e *env) probeLayers(m *layerMetrics, w *workload, tg *target, in *inputs, t *tally) {
	p := tg.inproc
	probeKnowledge(m, p.platform.KB(), w.daemon.durable)
	probeTenant(m, t)
	datasets := in.tables
	for _, role := range []string{"genomic", "proteome", "imaging", "network", "fastq", "mgf", "tiff", "features"} {
		if d, ok := in.named[role]; ok {
			datasets = append(datasets, d)
		}
	}
	payloads, err := probeRegistry(m, datasets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: registry probe: %v\n", err)
		return
	}
	if err := e.probeBlobstore(m, datasets); err != nil {
		fmt.Fprintf(os.Stderr, "bench: blobstore probe: %v\n", err)
	}
	// The workload's largest input stands for it in the engine and fleet
	// probes.
	big := 0
	for i, d := range datasets {
		if d.bytes() > datasets[big].bytes() {
			big = i
		}
	}
	ds := workflowDataset(datasets[big].family, payloads[big])
	if err := probeEngine(m, ds); err != nil {
		fmt.Fprintf(os.Stderr, "bench: engine probe: %v\n", err)
	}
	encoded := 0
	m.set("fleet.encode_ms", ms(int64(timeMedian(3, func() {
		if b, err := workflow.EncodeDataset(ds); err == nil {
			encoded = len(b)
		}
	}))))
	m.set("fleet.context_bytes", float64(encoded))
	fm := p.coord.FleetMetrics()
	m.set("fleet.dispatched", float64(fm.Dispatched))
	m.set("fleet.completed", float64(fm.Completed))
	m.set("fleet.redispatched", float64(fm.Redispatched))
	m.set("fleet.wire_bytes", float64(p.wire.Load()))
	p.mu.Lock()
	m.set("rpc.submit_ms", median(millis(p.submits)))
	p.mu.Unlock()
}

// probeKnowledge times the Data Broker's calls at the KB's current size.
func probeKnowledge(m *layerMetrics, kb *knowledge.Base, durable bool) {
	total, _ := kb.RunCounts()
	m.set("knowledge.run_logs", float64(total))
	m.set("knowledge.triples", float64(kb.Len()))
	if hits, misses := kb.CacheStats(); hits+misses > 0 {
		m.set("knowledge.advice_hit_ratio", float64(hits)/float64(hits+misses))
	}
	log := knowledge.RunLog{App: "BWA", Stage: 0, InputSize: 1, Threads: 1, ETime: 0.01}
	// The first chain-cost query after a fold refits every stage model:
	// what each pipelined job pays while the KB keeps growing.
	chain := []knowledge.StageRef{{App: "BWA", Stage: 0}, {App: "MaxQuant", Stage: 0},
		{App: "CellProfiler", Stage: 0}, {App: "Cytoscape", Stage: 0}}
	var refit []float64
	for i := 0; i < 5; i++ {
		_ = kb.LogRunAsync(log) // a well-formed log: cannot fail
		kb.Flush()
		start := time.Now()
		kb.ChainCosts(chain, 1)
		refit = append(refit, float64(time.Since(start))/1e6)
	}
	m.set("knowledge.refit_ms", median(refit))
	const calls = 2000
	start := time.Now()
	for i := 0; i < calls; i++ {
		_, _ = kb.ShardAdvice(1.5) // a memo hit after the first call
	}
	m.set("knowledge.advice_us", float64(time.Since(start))/1e3/calls)
	const logs = 200
	start = time.Now()
	for i := 0; i < logs; i++ {
		_ = kb.LogRunAsync(log)
	}
	kb.Flush()
	m.set("knowledge.fold_us_per_log", float64(time.Since(start))/1e3/logs)
	if durable {
		m.set("knowledge.wal_flush_ms", ms(int64(timeMedian(5, func() {
			_ = kb.LogRunAsync(log)
			kb.Flush() // WAL append + fsync before the fold
		}))))
	}
}

// probeTenant times one request's admission: authenticate, rate-limit,
// claim and release a job slot. Rejections are counted, here and among the
// run's own ops.
func probeTenant(m *layerMetrics, t *tally) {
	reg, err := tenant.Parse([]byte(benchTenants))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: tenant probe: %v\n", err)
		return
	}
	const calls = 20000
	rejected := t.refused
	start := time.Now()
	for i := 0; i < calls; i++ {
		st := reg.Authenticate(benchTenantKey)
		if st == nil {
			rejected++
			continue
		}
		if ok, _ := st.Allow(time.Now()); !ok {
			rejected++
			continue
		}
		if ok, _, _ := st.AdmitJob(); !ok {
			rejected++
			continue
		}
		st.ReleaseJob()
	}
	m.set("tenant.admit_us", float64(time.Since(start))/1e3/calls)
	m.set("tenant.rejected", float64(rejected))
}

// probeLimits is far above any benchmark payload.
var probeLimits = registry.Limits{MaxRecords: 1 << 30, MaxBytes: 1 << 40}

// probeRegistry decodes every dataset with the registry's own decoders,
// then stores and pins them in a fresh store.
func probeRegistry(m *layerMetrics, datasets []*dataset) ([]registry.Payload, error) {
	store := registry.NewStore(registry.Options{MaxDatasets: len(datasets) + 1, MaxBytes: 1 << 40})
	payloads := make([]registry.Payload, len(datasets))
	var decoded int64
	var decodeTime time.Duration
	var puts []float64
	for i, d := range datasets {
		family, err := registry.ParseFamily(d.family)
		if err != nil {
			return nil, err
		}
		var stats []registry.Stats
		start := time.Now()
		for _, part := range d.parts {
			st, err := registry.DecodeUploadPart(&payloads[i], family, part.field, bytes.NewReader(part.data), probeLimits)
			if err != nil {
				return nil, fmt.Errorf("decoding %s part %s: %w", d.family, part.field, err)
			}
			stats = append(stats, st)
		}
		decodeTime += time.Since(start)
		decoded += d.bytes()
		start = time.Now()
		if _, err := store.Put(fmt.Sprintf("probe-%d", i), family, payloads[i],
			registry.CombineStats(d.truth.records, stats...)); err != nil {
			return nil, err
		}
		puts = append(puts, float64(time.Since(start))/1e6)
	}
	m.set("registry.decode_mb_per_s", float64(decoded)/1e6/decodeTime.Seconds())
	m.set("registry.put_ms", median(puts))
	const pins = 2000
	start := time.Now()
	for i := 0; i < pins; i++ {
		meta, _, err := store.Pin("probe-0")
		if err != nil {
			return nil, err
		}
		store.Unpin(meta.ID)
	}
	m.set("registry.pin_us", float64(time.Since(start))/1e3/pins)
	return payloads, nil
}

// probeBlobstore writes the datasets' parts into a fresh disk store and
// reads them back by hash.
func (e *env) probeBlobstore(m *layerMetrics, datasets []*dataset) error {
	dir, err := os.MkdirTemp(e.out, "blobs-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := blobstore.Open(dir)
	if err != nil {
		return err
	}
	var written int64
	var hashes []string
	start := time.Now()
	for _, d := range datasets {
		for _, part := range d.parts {
			hash, n, err := store.Write(bytes.NewReader(part.data))
			if err != nil {
				return err
			}
			written += n
			hashes = append(hashes, hash)
		}
	}
	m.set("blobstore.write_mb_per_s", float64(written)/1e6/time.Since(start).Seconds())
	const gets = 500
	start = time.Now()
	for i := 0; i < gets; i++ {
		b, err := store.Get(hashes[i%len(hashes)])
		if err != nil {
			return err
		}
		b.Close()
	}
	m.set("blobstore.get_us", float64(time.Since(start))/1e3/gets)
	return nil
}

// workflowDataset builds the engine input a job over the payload gets.
func workflowDataset(family string, p registry.Payload) *workflow.Dataset {
	switch family {
	case "fastq":
		return workflow.NewFASTQDataset(p.Ref, p.Reads)
	case "mgf":
		return workflow.NewMGFDataset(p.PeptideDB, p.Spectra)
	case "tiff":
		return workflow.NewTIFFDataset(p.Images)
	}
	return workflow.NewFeatureDataset(p.Features)
}

// probeEngine times Engine.Run directly on fresh platforms: the barrier
// scheduler against the default (pipelined) one, and one worker against
// nproc — the single-thread baseline.
func probeEngine(m *layerMetrics, ds *workflow.Dataset) error {
	name := map[workflow.DataType]string{
		workflow.FASTQ: "dna-variant-detection", workflow.MGF: "proteome-maxquant",
		workflow.TIFF: "cell-imaging", workflow.FeatureTable: "integrative-network",
	}[ds.Type]
	run := func(workers int, barrier bool) (time.Duration, error) {
		d := make([]float64, 3)
		for i := range d {
			p := core.NewPlatform(core.Options{Workers: workers}) // fresh KB: every run sees the same advice
			start := time.Now()
			_, err := p.RunWorkflow(context.Background(), name, ds, workflow.RunOptions{
				Caller: variant.Config{MinDepth: 8, MinAltFraction: 0.6}, Barrier: barrier,
			})
			if err != nil {
				return 0, err
			}
			d[i] = float64(time.Since(start))
		}
		return time.Duration(median(d)), nil
	}
	base, err := run(runtime.NumCPU(), false)
	if err != nil {
		return err
	}
	barrier, err := run(runtime.NumCPU(), true)
	if err != nil {
		return err
	}
	single, err := run(1, false)
	if err != nil {
		return err
	}
	m.set("workflow.barrier_ratio", float64(barrier)/float64(base))
	m.set("workflow.w1_ratio", float64(single)/float64(base))
	return nil
}

// refusedByAdmission reports whether an op failed at tenant admission.
func refusedByAdmission(err error) bool {
	var api *rpc.APIError
	return errors.As(err, &api) && (api.Code == rpc.CodeRateLimited || api.Code == rpc.CodeQuotaExceeded)
}
