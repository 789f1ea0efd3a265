package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/knowledge"
	"scan/internal/network"
	"scan/internal/proteome"
	"scan/internal/route"
	"scan/internal/scheduler"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// --- dataset builders (mirrors of the workflow package's test fixtures;
// each call with the same seed regenerates an identical dataset, so the
// local and distributed runs consume independent but equal inputs) -------

func fastqDataset(t testing.TB, refLen, reads int, seed int64) *workflow.Dataset {
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
	return workflow.NewFASTQDataset(ref, rd)
}

// hostileFASTQ draws the genomic input that stresses every scatter: reads
// of mixed lengths, reads at both reference ends, 700-base reads across
// several regions, N bases, reads that map nowhere, and every third read
// from the reverse strand, its bases reverse-complemented and its
// qualities reversed.
func hostileFASTQ(t testing.TB, seed int64) *workflow.Dataset {
	t.Helper()
	ds := fastqDataset(t, 2300, 400, seed)
	rng := rand.New(rand.NewSource(seed))
	reads, ref := ds.Reads, ds.Reference.Seq
	for i := range reads {
		if rng.Intn(4) == 0 {
			n := 20 + rng.Intn(60)
			reads[i].Seq, reads[i].Qual = reads[i].Seq[:n], reads[i].Qual[:n]
		}
		if rng.Intn(8) == 0 {
			reads[i].Seq[rng.Intn(len(reads[i].Seq))] = 'N'
		}
	}
	for _, seq := range [][]byte{ref[:60], ref[:25], ref[len(ref)-60:], ref[len(ref)-25:], ref[900:1600], ref[300:1000]} {
		reads = append(reads, genomics.Read{ID: fmt.Sprint("edge", len(reads)), Seq: bytes.Clone(seq), Qual: bytes.Repeat([]byte("#"), len(seq))})
	}
	for range 6 {
		junk := make([]byte, 60) // maps nowhere
		for i := range junk {
			junk[i] = "ACGT"[rng.Intn(4)]
		}
		reads = append(reads, genomics.Read{ID: fmt.Sprint("junk", len(reads)), Seq: junk, Qual: bytes.Repeat([]byte("I"), len(junk))})
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
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
			qual[len(qual)-1-j] = q + byte(j%7) // a varied string, so reversing shows
		}
		r.Seq, r.Qual = seq, qual
	}
	ds.Reads = reads
	return ds
}

// hostileFrames mirrors the workflow package's hostile imaging input:
// frames that stress the tile scatter with a 70×70 square wider than any
// tile, a fully bright frame, a one-pixel snake through every row, a 50 %
// random frame with pixels at exactly the threshold, an empty frame, a
// frame narrower than its tile grid, cells centred on the borders of many
// tilings and a NaN pixel beside a cell.
func hostileFrames(t testing.TB, seed int64) *workflow.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frame := func(id string, w, h int, v func(x, y int) float64) imaging.Image {
		im := imaging.Image{ID: id, W: w, H: h, Pix: make([]float64, w*h)}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Pix[y*w+x] = v(x, y)
			}
		}
		return im
	}
	disk := func(x, y, cx, cy, r int) bool { return (x-cx)*(x-cx)+(y-cy)*(y-cy) <= r*r }
	frames := []imaging.Image{
		frame("square", 128, 128, func(x, y int) float64 {
			if x >= 29 && x < 99 && y >= 29 && y < 99 {
				return 0.9
			}
			return 0.1
		}),
		frame("bright", 40, 40, func(x, y int) float64 { return 1 }),
		// Full rows two apart, joined at alternate ends.
		frame("snake", 63, 64, func(x, y int) float64 {
			if y%2 == 0 || (y%4 == 1 && x == 62) || (y%4 == 3 && x == 0) {
				return 0.8
			}
			return 0
		}),
		frame("random", 64, 64, func(x, y int) float64 { return []float64{0.2, 0.5, 0.8, 0.3}[rng.Intn(4)] }),
		frame("empty", 32, 32, func(x, y int) float64 { return 0 }),
		frame("narrow", 3, 50, func(x, y int) float64 {
			if x == 1 || y%10 == 0 {
				return 0.7
			}
			return 0.2
		}),
		frame("borders", 96, 96, func(x, y int) float64 {
			for _, c := range [][2]int{{48, 48}, {32, 32}, {64, 32}, {32, 64}, {64, 64}, {48, 13}, {13, 48}, {82, 82}} {
				if disk(x, y, c[0], c[1], 5) {
					return 0.9
				}
			}
			return 0.25
		}),
		frame("nan", 48, 48, func(x, y int) float64 {
			switch {
			case x == 19 && y == 19:
				return math.NaN()
			case disk(x, y, 24, 24, 5):
				return 0.75
			}
			return 0.05
		}),
	}
	return workflow.NewTIFFDataset(frames)
}

func mgfDataset(t testing.TB, proteins, spectra int, seed int64) *workflow.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := proteome.GenerateDatabase(rng, proteins, 3)
	sp, _, err := proteome.SimulateSpectra(rng, db, proteome.SimConfig{
		Count: spectra, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workflow.NewMGFDataset(db, sp)
}

func tiffDataset(t testing.TB, images, cells int, seed int64) *workflow.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frames := make([]imaging.Image, 0, images)
	for i := 0; i < images; i++ {
		im, _, err := imaging.Generate(rng, fmt.Sprintf("img%d", i), imaging.SimConfig{W: 96, H: 96, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, im)
	}
	return workflow.NewTIFFDataset(frames)
}

func featureDataset(t testing.TB, genes, modules int, seed int64) *workflow.Dataset {
	t.Helper()
	ms, _, err := network.SimulateMeasurements(rand.New(rand.NewSource(seed)), genes, modules)
	if err != nil {
		t.Fatal(err)
	}
	features := make([]workflow.Feature, len(ms))
	for i, m := range ms {
		features[i] = workflow.Feature{Name: m.Name, Count: 1, Value: m.Value}
	}
	return workflow.NewFeatureDataset(features)
}

// hostileSpectra mirrors the workflow package's hostile spectra: the
// simulated set plus a peptide tied to an existing one's ladder, a
// duplicate peptide name with another ladder, a ladder with NaN, ±Inf and
// duplicate masses, and spectra that are empty, NaN/±Inf only, a ladder
// with non-finite peaks, every peak repeated, the special ladder's, and
// two peptides' ladders at once, shuffled among the simulated ones.
func hostileSpectra(t testing.TB, seed int64) *workflow.Dataset {
	t.Helper()
	ds := mgfDataset(t, 12, 200, seed)
	peps := slices.Clone(ds.PeptideDB.Peptides)
	p0, p1 := peps[0], peps[1]
	peps = append(peps,
		proteome.Peptide{Protein: "P999", Name: "P999.pep0", Masses: p0.Masses},
		proteome.Peptide{Protein: p1.Protein, Name: p1.Name, Masses: []float64{300, 900, 1500}},
		proteome.Peptide{Protein: "P998", Name: "P998.pep0", Masses: []float64{math.NaN(), 500, 500, math.Inf(1), math.Inf(-1), 700}},
	)
	spectra := slices.Clone(ds.Spectra)
	add := func(peaks ...float64) {
		slices.Sort(peaks)
		spectra = append(spectra, proteome.Spectrum{ID: fmt.Sprint("hostile", len(spectra)), Peaks: peaks})
	}
	add()
	add(math.NaN(), math.Inf(1), math.Inf(-1))
	add(append(slices.Clone(p0.Masses), math.NaN(), math.Inf(-1))...)
	add(append(slices.Clone(p1.Masses), p1.Masses...)...)
	add(500, 500, 700, math.Inf(1), math.Inf(-1))
	add(append(slices.Clone(peps[2].Masses[:5]), peps[3].Masses[:5]...)...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(spectra), func(i, j int) { spectra[i], spectra[j] = spectra[j], spectra[i] })
	return workflow.NewMGFDataset(proteome.Database{Peptides: peps}, spectra)
}

// hostileFeatures is a simulated feature table with NaN, ±Inf, ±0 and
// tied values planted among its genes.
func hostileFeatures(t testing.TB, seed int64) *workflow.Dataset {
	t.Helper()
	ds := featureDataset(t, 300, 6, seed)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		ds.Features[7*i].Value = v
	}
	ds.Features[1].Value = ds.Features[2].Value
	return ds
}

func seededKB(t testing.TB) *knowledge.Base {
	t.Helper()
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	return kb
}

// manualClock is the coordinator's injected clock in tests. It stands
// still until a test advances it, so no heartbeat expiry, dispatch
// timeout, straggler race or idle release fires unless the test steps time
// past it.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// logRecorder collects coordinator events, so a test can assert which
// failure path fired.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func (l *logRecorder) contains(sub string) bool { return strings.Contains(l.String(), sub) }

// testFleet is an in-process coordinator with real workers attached over
// loopback HTTP. The coordinator reads a manual clock.
type testFleet struct {
	coord  *Coordinator
	clock  *manualClock
	server *httptest.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(t testing.TB, copts Options, workers int) *testFleet {
	t.Helper()
	return startFleetWith(t, copts, workers, nil)
}

// startFleetWith is startFleet with the workers' HTTP client replaced (nil:
// the worker default), so a test can sit on the wire between them and the
// coordinator.
func startFleetWith(t testing.TB, copts Options, workers int, client *http.Client) *testFleet {
	t.Helper()
	clock := &manualClock{now: time.Now()}
	copts.Now = clock.Now
	coord := NewCoordinator(copts)
	mux := http.NewServeMux()
	route.Register(mux, route.V2, coord.Routes())
	srv := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	tf := &testFleet{coord: coord, clock: clock, server: srv, cancel: cancel}
	for i := 0; i < workers; i++ {
		wk := NewWorker(WorkerOptions{
			Coordinator: srv.URL,
			Token:       copts.Token,
			Name:        fmt.Sprintf("node%d", i+1),
			Slots:       1,
			HTTPClient:  client,
			Logf:        t.Logf,
		})
		tf.wg.Add(1)
		go func() {
			defer tf.wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	t.Cleanup(tf.stop)
	waitFor(t, 5*time.Second, func() bool { return coord.ReadyWorkers() >= workers })
	return tf
}

func (tf *testFleet) stop() {
	tf.cancel()
	tf.wg.Wait()
	tf.server.Close()
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encode flattens a dataset to its canonical wire bytes so nil/empty slice
// representation differences cannot mask (or fake) a divergence.
func encode(t testing.TB, ds *workflow.Dataset) []byte {
	t.Helper()
	b, err := workflow.EncodeDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedMatchesLocal is the acceptance contract: for every
// analysis family, a run through the coordinator + two remote workers
// produces byte-identical output and the same per-stage scatter telemetry
// as the same engine configuration running on its local pool.
func TestDistributedMatchesLocal(t *testing.T) {
	type distributedCase struct {
		name     string
		workflow string
		opts     workflow.RunOptions
		dataset  func(t testing.TB) *workflow.Dataset
		// observed, when set, is one run both KBs have logged before the
		// job; wantShards then pins the record scatter's wave-rounded width.
		observed   *knowledge.RunLog
		wantShards int
	}
	cases := []distributedCase{
		{name: "dna-variant-detection", workflow: "dna-variant-detection", dataset: func(t testing.TB) *workflow.Dataset {
			return fastqDataset(t, 8000, 2000, 7)
		}},
		{name: "proteome-maxquant", workflow: "proteome-maxquant", opts: workflow.RunOptions{ShardRecords: 100}, dataset: func(t testing.TB) *workflow.Dataset {
			return mgfDataset(t, 20, 400, 17)
		}},
		// Broker-advised with telemetry: 400 spectra fit no profile (one
		// shard), and the logged rate prices four 100-spectrum shards above
		// the floor, so the coordinator pins a plan rounded to its pool of
		// 4 that the workers must re-Split from the pinned options alone. A
		// logged run, not a timed one, keeps the plan independent of the
		// host's speed.
		{name: "proteome-maxquant-advised", workflow: "proteome-maxquant", dataset: func(t testing.TB) *workflow.Dataset {
			return mgfDataset(t, 20, 400, 17)
		}, observed: &knowledge.RunLog{App: "MaxQuant", InputSize: 0.4, Threads: 1, ETime: 0.4}, wantShards: 4},
		{name: "cell-imaging", workflow: "cell-imaging", opts: workflow.RunOptions{ShardRecords: 40}, dataset: func(t testing.TB) *workflow.Dataset {
			return tiffDataset(t, 3, 5, 23)
		}},
		{name: "integrative-network", workflow: "integrative-network", opts: workflow.RunOptions{ShardRecords: 20}, dataset: func(t testing.TB) *workflow.Dataset {
			return featureDataset(t, 60, 4, 29)
		}},
		// 700 alignments a shard cut eight expression bins into three
		// regions: shards own unequal runs of whole bins and ship per-bin
		// feature lists.
		{name: "rna-expression", workflow: "rna-expression", opts: workflow.RunOptions{ShardRecords: 700}, dataset: func(t testing.TB) *workflow.Dataset {
			return fastqDataset(t, 8000, 2000, 13)
		}},
	}
	// Every read-consuming genomic workflow over the hostile read mix, in
	// 37-record shards: 37 reads per align shard, a region per 37
	// alignments.
	for _, name := range []string{
		"dna-variant-detection", "exome-variant-detection", "wgs-variant-detection",
		"somatic-mutation-detection", "mirna-fusion-detection", "rna-expression",
	} {
		cases = append(cases, distributedCase{name: "hostile-" + name, workflow: name,
			opts:    workflow.RunOptions{ShardRecords: 37, Caller: variant.Config{MinDepth: 3, MinAltFraction: 0.3}},
			dataset: func(t testing.TB) *workflow.Dataset { return hostileFASTQ(t, 31) }})
	}
	// The hostile frames in 7-row bands: cells taller than a band, on band
	// borders, in a frame three pixels wide and beside a NaN pixel.
	cases = append(cases, distributedCase{name: "hostile-cell-imaging", workflow: "cell-imaging",
		opts: workflow.RunOptions{ShardRecords: 7}, dataset: func(t testing.TB) *workflow.Dataset { return hostileFrames(t, 5) }})
	// The proteomic workflows over the hostile spectra and the network over
	// the hostile feature table, each in many small shards and in a few
	// wide ones.
	for _, h := range []struct {
		workflow    string
		small, wide int
		dataset     func(t testing.TB) *workflow.Dataset
	}{
		{"proteome-maxquant", 13, 100, func(t testing.TB) *workflow.Dataset { return hostileSpectra(t, 13) }},
		{"proteome-gpm", 13, 100, func(t testing.TB) *workflow.Dataset { return hostileSpectra(t, 13) }},
		{"integrative-network", 7, 150, func(t testing.TB) *workflow.Dataset { return hostileFeatures(t, 11) }},
	} {
		cases = append(cases,
			distributedCase{name: "hostile-" + h.workflow, workflow: h.workflow,
				opts: workflow.RunOptions{ShardRecords: h.small}, dataset: h.dataset},
			distributedCase{name: "hostile-" + h.workflow + "-wide", workflow: h.workflow,
				opts: workflow.RunOptions{ShardRecords: h.wide}, dataset: h.dataset})
	}
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale}, 2)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Independent engines with independently seeded knowledge bases:
			// the Data Broker adapts to run logs, so sharing one KB across
			// the two runs would let the first run's telemetry reshape the
			// second run's shard plan.
			kb := func() *knowledge.Base {
				kb := seededKB(t)
				if tc.observed != nil {
					if err := kb.LogRun(*tc.observed); err != nil {
						t.Fatal(err)
					}
				}
				return kb
			}
			local := workflow.NewEngine(workflow.EngineOptions{KB: kb(), Workers: 4})
			remote := workflow.NewEngine(workflow.EngineOptions{KB: kb(), Workers: 4})

			want, err := local.RunByName(context.Background(), tc.workflow, tc.dataset(t), tc.opts)
			if err != nil {
				t.Fatalf("local run: %v", err)
			}
			ropts := tc.opts
			ropts.ShardPool = tf.coord
			remoteBefore := tf.coord.FleetMetrics().RemoteStages
			got, err := remote.RunByName(context.Background(), tc.workflow, tc.dataset(t), ropts)
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			if tf.coord.FleetMetrics().RemoteStages == remoteBefore {
				t.Fatal("no stage ran on the fleet")
			}
			switch out := got.Output; {
			case tc.workflow == "cell-imaging":
				if len(out.Features) == 0 {
					t.Fatal("no cells segmented")
				}
			case strings.HasPrefix(tc.workflow, "proteome-"):
				if len(out.Proteins) < 10 {
					t.Fatalf("%d proteins quantified", len(out.Proteins))
				}
			case tc.workflow == "integrative-network":
				if out.Net.Edges == 0 || len(out.Net.Modules) == 0 {
					t.Fatalf("%d edges, %d modules", out.Net.Edges, len(out.Net.Modules))
				}
			case strings.HasPrefix(tc.name, "hostile-") &&
				(out.Mapped == 0 || out.Mapped == len(out.Reads) || len(out.Variants)+len(out.Features) == 0):
				t.Fatalf("%d of %d reads mapped, %d calls, %d features", out.Mapped, len(out.Reads), len(out.Variants), len(out.Features))
			}

			if !bytes.Equal(encode(t, want.Output), encode(t, got.Output)) {
				t.Fatalf("distributed output diverges from local for %s", tc.workflow)
			}
			if len(want.Stages) != len(got.Stages) {
				t.Fatalf("stage count: local %d, distributed %d", len(want.Stages), len(got.Stages))
			}
			for i := range want.Stages {
				w, g := want.Stages[i], got.Stages[i]
				if w.Stage != g.Stage || w.Tool != g.Tool || w.Shards != g.Shards ||
					w.Records != g.Records || !reflect.DeepEqual(w.Plan, g.Plan) {
					t.Fatalf("stage %d diverges:\nlocal       %s/%s shards=%d records=%d plan=%+v\ndistributed %s/%s shards=%d records=%d plan=%+v",
						i, w.Stage, w.Tool, w.Shards, w.Records, w.Plan,
						g.Stage, g.Tool, g.Shards, g.Records, g.Plan)
				}
			}
			if sr, _ := got.RecordScatter(); tc.wantShards > 0 && (sr.Shards != tc.wantShards || sr.Plan.NumShards != tc.wantShards) {
				t.Fatalf("advised scatter ran %d shards, plan %+v, want %d", sr.Shards, sr.Plan, tc.wantShards)
			}
		})
	}
	// The work spread across the fleet: with AlwaysScale and four multi-shard
	// stages, both nodes must have executed shards.
	roster := tf.coord.Snapshot()
	if len(roster.Workers) != 2 {
		t.Fatalf("roster = %d workers, want 2", len(roster.Workers))
	}
	for _, ws := range roster.Workers {
		if ws.ShardsDone == 0 {
			t.Fatalf("worker %s (%s) executed no shards; fleet did not scatter", ws.ID, ws.Name)
		}
	}
	if m := tf.coord.FleetMetrics(); m.RemoteStages == 0 || m.Completed == 0 {
		t.Fatalf("metrics = %+v, want remote stages and completions", m)
	}
}

// TestRunShardsNoWorkersFallsBackLocal: a pool with no registered workers
// reports ErrNoWorkers and the engine transparently runs the stage on its
// local pool — the run succeeds with identical output.
func TestRunShardsNoWorkersFallsBackLocal(t *testing.T) {
	coord := NewCoordinator(Options{})
	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	want, err := e.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	e2 := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	got, err := e2.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20, ShardPool: coord})
	if err != nil {
		t.Fatalf("run with empty fleet: %v", err)
	}
	if !bytes.Equal(encode(t, want.Output), encode(t, got.Output)) {
		t.Fatal("local fallback diverges from plain local run")
	}
	if m := coord.FleetMetrics(); m.Dispatched != 0 {
		t.Fatalf("empty fleet dispatched %d tasks", m.Dispatched)
	}
}

// fakeWorker drives the wire protocol by hand so tests can misbehave in
// ways the real Worker never would: take a task and die, or sit on it past
// the straggler threshold.
type fakeWorker struct {
	t    testing.TB
	base string
	id   string
}

func newFakeWorker(t testing.TB, base, name string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{t: t, base: base}
	var resp RegisterResponse
	fw.post("/api/v2/fleet/register", RegisterRequest{Name: name, Slots: 1}, &resp)
	if resp.ID == "" {
		t.Fatal("fake worker: no id assigned")
	}
	fw.id = resp.ID
	return fw
}

func (fw *fakeWorker) post(path string, in, out any) int {
	fw.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		fw.t.Fatal(err)
	}
	return fw.send(path, body, out)
}

// postResult posts a result envelope with payload right behind it, as a
// Worker does; the caller sets the envelope's OutputBytes.
func (fw *fakeWorker) postResult(res ResultRequest, payload []byte, out any) int {
	fw.t.Helper()
	env, err := json.Marshal(res)
	if err != nil {
		fw.t.Fatal(err)
	}
	return fw.send("/api/v2/fleet/result", append(env, payload...), out)
}

func (fw *fakeWorker) send(path string, body []byte, out any) int {
	fw.t.Helper()
	resp, err := http.Post(fw.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		fw.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			fw.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// pollUntilTask polls until the coordinator grants a task.
func (fw *fakeWorker) pollUntilTask(timeout time.Duration) Task {
	fw.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var resp PollResponse
		fw.post("/api/v2/fleet/poll", PollRequest{WorkerID: fw.id}, &resp)
		if resp.Task != nil {
			return *resp.Task
		}
	}
	fw.t.Fatal("fake worker: no task granted in time")
	return Task{}
}

// TestWorkerLossRedispatches: a worker that takes a shard and dies loses
// its dispatch to the heartbeat sweep; the shard re-queues and the
// surviving worker completes the stage with no lost or duplicated results.
func TestWorkerLossRedispatches(t *testing.T) {
	events := &logRecorder{}
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale, Logf: events.logf}, 0)

	// The doomed worker registers first and parks a long-poll on the
	// queue head.
	dead := newFakeWorker(t, tf.server.URL, "doomed")

	// The healthy worker is alive from the start, so the fleet never
	// empties: the stranded shard must flow through the re-dispatch path,
	// not the all-workers-gone local fallback (which would also succeed
	// but is a different contract, pinned by
	// TestRunShardsNoWorkersFallsBackLocal). Its first shard result is held
	// until the doomed worker has taken a shard: with one slot it cannot
	// poll meanwhile, so it cannot drain the queue first.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := &resultGate{open: make(chan struct{})}
	wk := NewWorker(WorkerOptions{Coordinator: tf.server.URL, Name: "healthy", Slots: 1, Logf: t.Logf,
		HTTPClient: &http.Client{Transport: gate}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = wk.Run(ctx) }()
	defer wg.Wait()
	defer cancel()
	waitFor(t, 5*time.Second, func() bool {
		for _, ws := range tf.coord.Snapshot().Workers {
			if ws.Name == "healthy" {
				return true
			}
		}
		return false
	})

	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	ds := featureDataset(t, 60, 4, 29)
	opts := workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord}
	type res struct {
		r   *workflow.Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := e.RunByName(context.Background(), "integrative-network", ds, opts)
		done <- res{r, err}
	}()

	// Take one shard and go silent: no result, no more polls. The shard
	// is stranded until the heartbeat sweep expires the worker.
	if taken := dead.pollUntilTask(5 * time.Second); taken.ID == "" {
		t.Fatal("no task taken")
	}
	// One second on, short of stragglerAfter: every heartbeat the healthy
	// worker sends from here is newer than the doomed worker's last.
	tf.clock.advance(time.Second)
	close(gate.open)
	waitFor(t, 10*time.Second, func() bool { return tf.coord.FleetMetrics().Completed == 2 })
	// The doomed worker's silence passes workerExpiry; the healthy
	// worker's, a second shorter, does not.
	tf.clock.advance(workerExpiry - time.Second/2)

	got := <-done
	if got.err != nil {
		t.Fatalf("run with mid-shard worker loss: %v", got.err)
	}

	e2 := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	want, err := e2.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, want.Output), encode(t, got.r.Output)) {
		t.Fatal("output diverges after worker loss re-dispatch")
	}
	m := tf.coord.FleetMetrics()
	if m.Redispatched != 1 {
		t.Fatalf("metrics = %+v: want exactly one re-dispatch, of the stranded shard", m)
	}
	if m.Completed != 3 {
		t.Fatalf("completed = %d accepted shard results, want exactly 3 (no loss, no double-commit)", m.Completed)
	}
	if !events.contains("(doomed) lost with 1 shards in flight") || events.contains("straggling") {
		t.Fatalf("re-dispatch not caused by the worker's expiry; events:\n%s", events)
	}
}

// TestStragglerRacedAndLateResultDiscarded: a live-but-slow worker holds a
// shard past the straggler threshold; the coordinator races a duplicate
// dispatch, the fast worker's result wins, and the straggler's late result
// is discarded idempotently.
func TestStragglerRacedAndLateResultDiscarded(t *testing.T) {
	events := &logRecorder{}
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale, Logf: events.logf}, 0)

	slow := newFakeWorker(t, tf.server.URL, "slow")

	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	opts := workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord}
	type res struct {
		r   *workflow.Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := e.RunByName(context.Background(), "integrative-network", featureDataset(t, 60, 4, 29), opts)
		done <- res{r, err}
	}()

	taken := slow.pollUntilTask(5 * time.Second)

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wk := NewWorker(WorkerOptions{Coordinator: tf.server.URL, Name: "fast", Slots: 1, Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = wk.Run(wctx) }()
	defer wg.Wait()
	defer wcancel()

	// The fast worker drains the other shards. Then the slow shard's age
	// passes the straggler threshold (stragglerAfter, or three times the
	// fast shards' median) while staying short of workerExpiry and
	// shardTimeout: the duplicate can come from the straggler race alone.
	waitFor(t, 10*time.Second, func() bool { return tf.coord.FleetMetrics().Completed == 2 })
	tf.clock.advance(workerExpiry / 2)

	got := <-done
	if got.err != nil {
		t.Fatalf("run with straggler: %v", got.err)
	}
	if m := tf.coord.FleetMetrics(); m.Redispatched != 1 || !events.contains("straggling on worker") || events.contains("lost with") {
		t.Fatalf("metrics = %+v: want one re-dispatch, from the straggler race; events:\n%s", m, events)
	}

	// The straggler finally reports. The shard is long since complete, so
	// the coordinator discards the duplicate and says so.
	var ack ResultResponse
	late := shardOutput(t, taken, featureDataset(t, 60, 4, 29))
	slow.postResult(ResultRequest{
		WorkerID: slow.id, TaskID: taken.ID, OutputBytes: int64(len(late)), ElapsedMS: 1,
	}, late, &ack)
	if ack.Accepted {
		t.Fatal("late straggler result was accepted after the duplicate already won")
	}
	if m := tf.coord.FleetMetrics(); m.DuplicatesDiscarded == 0 {
		t.Fatalf("metrics = %+v: duplicate not counted as discarded", m)
	}
}

// TestCommittedShardLeavesQueue: a straggler duplicate leaves the queue
// when its shard's first result commits, so the roster and the hire
// decision count only shards still waiting for a worker.
func TestCommittedShardLeavesQueue(t *testing.T) {
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale}, 0)
	a := newFakeWorker(t, tf.server.URL, "a")
	b := newFakeWorker(t, tf.server.URL, "b")

	done := make(chan error, 1)
	go func() {
		e := workflow.NewEngine(workflow.EngineOptions{Workers: 1})
		_, err := e.RunByName(context.Background(), "integrative-network", featureDataset(t, 40, 4, 29),
			workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
		done <- err
	}()
	ta := a.pollUntilTask(5 * time.Second)
	tb := b.pollUntilTask(5 * time.Second)

	// Both shards straggle. Each fake worker's one slot is busy, so both
	// duplicates stay queued.
	tf.clock.advance(stragglerAfter)
	waitFor(t, 5*time.Second, func() bool { return tf.coord.Snapshot().Queued == 2 })

	var ack ResultResponse
	outA := shardOutput(t, ta, featureDataset(t, 40, 4, 29))
	a.postResult(ResultRequest{
		WorkerID: a.id, TaskID: ta.ID, OutputBytes: int64(len(outA)), ElapsedMS: 1,
	}, outA, &ack)
	if !ack.Accepted {
		t.Fatal("first result for shard rejected")
	}
	if q := tf.coord.Snapshot().Queued; q != 1 {
		t.Fatalf("roster queued = %d after shard %d committed, want 1 (only shard %d waits)", q, ta.Shard, tb.Shard)
	}

	outB := shardOutput(t, tb, featureDataset(t, 40, 4, 29))
	b.postResult(ResultRequest{
		WorkerID: b.id, TaskID: tb.ID, OutputBytes: int64(len(outB)), ElapsedMS: 1,
	}, outB, &ack)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q := tf.coord.Snapshot().Queued; q != 0 {
		t.Fatalf("roster queued = %d after the stage finished", q)
	}
}

// shardOutput runs a task's shard the way a worker does, over the stage
// input the test supplies, and returns the encoded shard result.
func shardOutput(t testing.TB, task Task, input *workflow.Dataset) []byte {
	t.Helper()
	if !slices.Equal(partHashes(t, input), task.ContextParts) {
		t.Fatalf("task %s context is not the supplied input", task.ID)
	}
	prep, err := workflow.NewEngine(workflow.EngineOptions{Workers: 1}).PrepareStageShards(
		task.Workflow, task.Stage, input, task.Options.RunOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := prep.RunShard(context.Background(), task.Shard)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := workflow.EncodeShard(out)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// partHashes returns the content hashes of a stage input's context parts.
func partHashes(t testing.TB, input *workflow.Dataset) []string {
	t.Helper()
	var hashes []string
	for _, p := range workflow.ContextParts(input) {
		sum := sha256.Sum256(encode(t, p.Data))
		hashes = append(hashes, hex.EncodeToString(sum[:]))
	}
	return hashes
}

// resultGate is a worker-side transport that counts poll requests and holds
// every shard result until the gate opens. A one-slot worker whose result
// is held cannot poll again, so the queue depth the other worker's poll is
// judged against stays put instead of racing the first worker's drain.
type resultGate struct {
	polls atomic.Int32
	open  chan struct{}
}

func (g *resultGate) RoundTrip(r *http.Request) (*http.Response, error) {
	switch {
	case strings.HasSuffix(r.URL.Path, "/fleet/poll"):
		g.polls.Add(1)
	case strings.HasSuffix(r.URL.Path, "/fleet/result"):
		select {
		case <-g.open:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestScalingPoliciesGateEngagement runs the same distributed stage under
// each scaling policy and asserts the hire decisions on the live fleet:
// NeverScale keeps the second worker cold, PredictiveScale hires it only
// when Equation 1's queue-delay cost clears the hire cost, AlwaysScale
// engages everyone.
func TestScalingPoliciesGateEngagement(t *testing.T) {
	run := func(t *testing.T, copts Options, shards int) (*Coordinator, Roster) {
		t.Helper()
		gate := &resultGate{open: make(chan struct{})}
		tf := startFleetWith(t, copts, 2, &http.Client{Transport: gate})
		// A knowledge-base-free engine estimates every shard at the 1s
		// fallback, making the hire economics deterministic: with q shards
		// queued the 1→2 hire saves q(q-1)/4 in delay cost and costs
		// 3×(0.1s+1s) = 3.3.
		e := workflow.NewEngine(workflow.EngineOptions{Workers: 4})
		ds := featureDataset(t, 20*shards, 4, 29)
		errc := make(chan error, 1)
		go func() {
			_, err := e.RunByName(context.Background(), "integrative-network", ds,
				workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
			errc <- err
		}()
		// The first grant parks one worker on its held result with
		// shards-1 queued. The other worker is judged against exactly that
		// depth: it is hired (a second dispatch), or it finishes a poll
		// begun after the enqueue — two poll starts, since a worker polls
		// sequentially — and was declined. A declined poll is held for
		// pollWait.
		waitFor(t, 5*time.Second, func() bool { return tf.coord.FleetMetrics().Dispatched >= 1 })
		base := gate.polls.Load()
		waitFor(t, 5*time.Second, func() bool {
			return tf.coord.FleetMetrics().Dispatched >= 2 || gate.polls.Load() >= base+2
		})
		close(gate.open)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return tf.coord, tf.coord.Snapshot()
	}
	shardsDone := func(r Roster) (int, int) {
		busy, total := 0, 0
		for _, ws := range r.Workers {
			total += ws.ShardsDone
			if ws.ShardsDone > 0 {
				busy++
			}
		}
		return busy, total
	}

	t.Run("never-scale", func(t *testing.T) {
		coord, roster := run(t, Options{Scaling: scheduler.NeverScale}, 8)
		busy, total := shardsDone(roster)
		if busy != 1 || total != 8 {
			t.Fatalf("never-scale: %d workers busy over %d shards, want exactly 1 over 8", busy, total)
		}
		if m := coord.FleetMetrics(); m.Hires != 1 {
			t.Fatalf("never-scale hired %d workers, want 1 (the baseline)", m.Hires)
		}
	})
	t.Run("predictive-below-threshold", func(t *testing.T) {
		// 5 shards: the second worker is judged against 4 queued, a delay
		// saving of 3 under the hire cost of 3.3. The queue only shrinks
		// from there, so it never justifies the second worker.
		coord, roster := run(t, Options{Scaling: scheduler.PredictiveScale}, 5)
		busy, total := shardsDone(roster)
		if busy != 1 || total != 5 {
			t.Fatalf("predictive(shallow): %d workers busy over %d shards, want exactly 1 over 5", busy, total)
		}
		if m := coord.FleetMetrics(); m.Hires != 1 {
			t.Fatalf("predictive(shallow) hired %d, want 1", m.Hires)
		}
	})
	t.Run("predictive-above-threshold", func(t *testing.T) {
		// 8 shards: 7 queued save 10.5, which clears the cost of 3.3, so
		// the policy hires the second worker.
		coord, _ := run(t, Options{Scaling: scheduler.PredictiveScale}, 8)
		if m := coord.FleetMetrics(); m.Hires != 2 {
			t.Fatalf("predictive(deep) hired %d, want 2", m.Hires)
		}
	})
	t.Run("always-scale", func(t *testing.T) {
		coord, _ := run(t, Options{Scaling: scheduler.AlwaysScale}, 8)
		if m := coord.FleetMetrics(); m.Hires != 2 {
			t.Fatalf("always-scale hired %d, want 2", m.Hires)
		}
	})
}

// blobCounter is a worker-side transport that counts blob fetches and
// keeps the last path fetched.
type blobCounter struct {
	fetches atomic.Int32
	last    atomic.Value // string
}

func (b *blobCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasPrefix(r.URL.Path, "/api/v2/blobs/") {
		b.fetches.Add(1)
		b.last.Store(r.URL.Path)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestBlobDataPlane: every stage context ships by hash; each worker
// fetches it at most once and reuses the cached dataset for later shards.
// The context blob lives exactly as long as its stage.
func TestBlobDataPlane(t *testing.T) {
	blobs := &blobCounter{}
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 2, &http.Client{Transport: blobs})
	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	got, err := e.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
	if err != nil {
		t.Fatalf("blob-shipped run: %v", err)
	}
	e2 := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	want, err := e2.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, want.Output), encode(t, got.Output)) {
		t.Fatal("blob-shipped output diverges from local")
	}
	if n := blobs.fetches.Load(); n < 1 || n > 2 {
		t.Fatalf("%d blob fetches for one stage on two workers, want 1 or 2", n)
	}
	tf.coord.mu.Lock()
	held := len(tf.coord.blobs)
	tf.coord.mu.Unlock()
	if held != 0 {
		t.Fatalf("coordinator holds %d context blobs after the run returned, want 0", held)
	}
	resp, err := http.Get(tf.server.URL + blobs.last.Load().(string))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the finished stage's context: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestWorkerFetchesContextOnce: a 4-slot worker that runs all four shards
// of one stage at once fetches the stage's context blob once, and the
// shards share its decode and prepare.
func TestWorkerFetchesContextOnce(t *testing.T) {
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 0, nil)
	blobs := &blobCounter{}
	wk := NewWorker(WorkerOptions{
		Coordinator: tf.server.URL,
		Name:        "wide",
		Slots:       4,
		HTTPClient:  &http.Client{Transport: blobs},
		Logf:        t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = wk.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitFor(t, 5*time.Second, func() bool { return tf.coord.ReadyWorkers() >= 1 })

	e := workflow.NewEngine(workflow.EngineOptions{Workers: 4})
	res, err := e.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 15, ShardPool: tf.coord})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stages[0].Shards; n != 4 {
		t.Fatalf("stage ran %d shards, want 4", n)
	}
	if m := tf.coord.FleetMetrics(); m.Completed != 4 {
		t.Fatalf("metrics = %+v, want 4 shards completed on the worker", m)
	}
	if n := blobs.fetches.Load(); n != 1 {
		t.Fatalf("%d context blob fetches for one 4-shard stage on one worker, want 1", n)
	}
}

// resultCounter is a worker-side transport that counts result POSTs and
// their body bytes.
type resultCounter struct {
	posts, bytes atomic.Int64
}

func (c *resultCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/fleet/result") {
		c.posts.Add(1)
		c.bytes.Add(r.ContentLength)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// payloadSizer is a ShardPool over a coordinator that adds up the
// EncodeShard size of every shard output the fleet returns.
type payloadSizer struct {
	coord *Coordinator
	bytes atomic.Int64
}

func (p *payloadSizer) RunShards(ctx context.Context, env *workflow.StageEnv, shards []workflow.StreamShard) ([]workflow.StreamShard, []time.Duration, error) {
	outs, elapsed, err := p.coord.RunShards(ctx, env, shards)
	for _, out := range outs {
		b, encErr := workflow.EncodeShard(out)
		if encErr != nil {
			return nil, nil, encErr
		}
		p.bytes.Add(int64(len(b)))
	}
	return outs, elapsed, err
}

// TestResultWireCarriesRawBytes: a shard output crosses the result wire as
// its encoded bytes behind a small JSON envelope, not re-encoded as text.
func TestResultWireCarriesRawBytes(t *testing.T) {
	wire := &resultCounter{}
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 2, &http.Client{Transport: wire})
	sizer := &payloadSizer{coord: tf.coord}
	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	if _, err := e.RunByName(context.Background(), "dna-variant-detection",
		fastqDataset(t, 8000, 2000, 7), workflow.RunOptions{ShardPool: sizer}); err != nil {
		t.Fatal(err)
	}
	posts, payload := wire.posts.Load(), sizer.bytes.Load()
	if m := tf.coord.FleetMetrics(); m.RemoteStages < 2 || posts == 0 || int64(m.Completed) != posts {
		t.Fatalf("metrics = %+v over %d result posts: want every stage remote, one post per shard", m, posts)
	}
	if got, limit := wire.bytes.Load(), payload+512*posts; got > limit {
		t.Fatalf("%d result bytes posted for %d payload bytes in %d results, want at most %d", got, payload, posts, limit)
	}
}

// TestMalformedPayloadRequeues: a payload shorter or longer than its
// envelope's output_bytes is a decode failure. The shard does not commit
// and re-queues once.
func TestMalformedPayloadRequeues(t *testing.T) {
	for _, tc := range []struct {
		name   string
		garble func(out []byte) []byte
	}{
		{name: "short", garble: func(out []byte) []byte { return out[:len(out)-1] }},
		{name: "trailing", garble: func(out []byte) []byte { return append(out, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale}, 0)
			fw := newFakeWorker(t, tf.server.URL, "garbler")
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				e := workflow.NewEngine(workflow.EngineOptions{Workers: 1})
				_, err := e.RunByName(ctx, "integrative-network", featureDataset(t, 60, 4, 29),
					workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
				done <- err
			}()
			taken := fw.pollUntilTask(5 * time.Second)
			out := shardOutput(t, taken, featureDataset(t, 60, 4, 29))
			var ack ResultResponse
			code := fw.postResult(ResultRequest{WorkerID: fw.id, TaskID: taken.ID, OutputBytes: int64(len(out)), ElapsedMS: 1},
				tc.garble(out), &ack)
			if code != http.StatusOK || ack.Accepted {
				t.Fatalf("garbled payload: HTTP %d, accepted %v; want 200 and not accepted", code, ack.Accepted)
			}
			if m := tf.coord.FleetMetrics(); m.Completed != 0 || m.Redispatched != 1 {
				t.Fatalf("metrics = %+v: want no commit and exactly one re-dispatch", m)
			}
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("run err = %v, want context.Canceled", err)
			}
		})
	}
}

// blobFlipper is a worker-side transport that flips one byte of every blob
// it fetches and counts the fetches.
type blobFlipper struct{ fetches atomic.Int32 }

func (f *blobFlipper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !strings.HasPrefix(r.URL.Path, "/api/v2/blobs/") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	f.fetches.Add(1)
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	b[len(b)/2] ^= 0x20
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

// TestWorkerRejectsBlobThatMissesItsHash: a worker checks a fetched blob
// against the task's context hash before decoding or caching it. Bytes
// corrupted in transit fail every dispatch, so the stage fails with the
// mismatch, no shard commits, and each retry fetches again.
func TestWorkerRejectsBlobThatMissesItsHash(t *testing.T) {
	flip := &blobFlipper{}
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 1, &http.Client{Transport: flip})
	e := workflow.NewEngine(workflow.EngineOptions{Workers: 1})
	res, err := e.RunByName(context.Background(), "integrative-network", featureDataset(t, 60, 4, 29),
		workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
	if err == nil || !strings.Contains(err.Error(), "content hash mismatch") {
		t.Fatalf("run err = %v, want a content hash mismatch", err)
	}
	if res != nil && res.Output != nil {
		t.Fatal("a run over a corrupted context produced output")
	}
	if m := tf.coord.FleetMetrics(); m.Completed != 0 {
		t.Fatalf("metrics = %+v: a shard committed over a corrupted context", m)
	}
	if n := flip.fetches.Load(); n < maxAttempts {
		t.Fatalf("%d blob fetches for %d failed dispatches: a corrupted blob was cached", n, maxAttempts)
	}
}

// TestFleetTokenAuth: with a token configured, unauthenticated control and
// data-plane requests are rejected with the v2 error envelope, and a real
// worker carrying the token still completes work end to end.
func TestFleetTokenAuth(t *testing.T) {
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale, Token: "s3cret"}, 1)
	resp, err := http.Post(tf.server.URL+"/api/v2/fleet/register", "application/json",
		bytes.NewReader([]byte(`{"name":"intruder","slots":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless register: HTTP %d, want 401", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "unauthorized" {
		t.Fatalf("error envelope = %+v, err %v", env, err)
	}

	e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
	if _, err := e.RunByName(context.Background(), "integrative-network",
		featureDataset(t, 60, 4, 29), workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord}); err != nil {
		t.Fatalf("authed worker run: %v", err)
	}
}

// TestResultWithoutOutputOrErrorRejected: the result endpoint decodes
// through ReadResult, so a result that carries neither an output nor an
// error is a 400 — not a decode failure that re-queues the shard.
func TestResultWithoutOutputOrErrorRejected(t *testing.T) {
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale}, 0)
	fw := newFakeWorker(t, tf.server.URL, "empty-handed")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		e := workflow.NewEngine(workflow.EngineOptions{Workers: 1})
		_, err := e.RunByName(ctx, "integrative-network", featureDataset(t, 60, 4, 29),
			workflow.RunOptions{ShardRecords: 20, ShardPool: tf.coord})
		done <- err
	}()
	taken := fw.pollUntilTask(5 * time.Second)
	if code := fw.post("/api/v2/fleet/result", ResultRequest{WorkerID: fw.id, TaskID: taken.ID}, nil); code != http.StatusBadRequest {
		t.Fatalf("result with neither output nor error: HTTP %d, want 400", code)
	}
	if m := tf.coord.FleetMetrics(); m.Redispatched != 0 {
		t.Fatalf("metrics = %+v: the rejected result re-queued its shard", m)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
}

// TestWorkerRejectsMalformedTask: the worker applies DecodeTask's checks
// to every polled task before touching the data plane.
func TestWorkerRejectsMalformedTask(t *testing.T) {
	wk := NewWorker(WorkerOptions{Coordinator: "http://127.0.0.1:0"})
	for _, task := range []Task{
		{ID: "t1", Workflow: "integrative-network", ContextParts: []string{"deadbeef"}},
		{ID: "t2", Workflow: "integrative-network", Shard: -1, ContextParts: []string{strings.Repeat("ab", 32)}},
		{Workflow: "integrative-network", ContextParts: []string{strings.Repeat("ab", 32)}},
	} {
		if _, _, err := wk.runTask(context.Background(), task); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("task %+v: err = %v, want ErrBadEnvelope", task, err)
		}
	}
}

// taskMangler is a worker-side transport that rewrites every task the
// worker polls while a mangle is set, and answers the fetch of each part
// it holds by itself. Its parts are fixed before the worker starts.
type taskMangler struct {
	mangle atomic.Pointer[func(*Task)]
	parts  map[string][]byte
}

// part encodes d, keeps it for fetches, and returns its hash.
func (m *taskMangler) part(t testing.TB, d *workflow.Dataset) string {
	b := encode(t, d)
	sum := sha256.Sum256(b)
	hash := hex.EncodeToString(sum[:])
	m.parts[hash] = b
	return hash
}

func (m *taskMangler) RoundTrip(r *http.Request) (*http.Response, error) {
	if b, ok := m.parts[strings.TrimPrefix(r.URL.Path, "/api/v2/blobs/")]; ok {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
			Body: io.NopCloser(bytes.NewReader(b)), ContentLength: int64(len(b))}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	mangle := m.mangle.Load()
	if err != nil || mangle == nil || !strings.HasSuffix(r.URL.Path, "/fleet/poll") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	var poll PollResponse
	err = json.NewDecoder(resp.Body).Decode(&poll)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if poll.Task != nil {
		(*mangle)(poll.Task)
	}
	b, err := json.Marshal(poll)
	if err != nil {
		return nil, err
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
	return resp, nil
}

// TestWorkerRejectsMalformedContext: a task whose context parts are
// malformed — none, a repeated hash, more than the dataset has fields, two
// setting one field, or an alignment naming a read the context lacks — or
// whose pinned options re-Split the stage into another shard count fails
// on the worker as a task error. Every dispatch re-queues until the
// stage fails with the worker's error, no shard commits, and the worker
// lives on to run the next job.
func TestWorkerRejectsMalformedContext(t *testing.T) {
	m := &taskMangler{parts: make(map[string][]byte)}
	ds := fastqDataset(t, 2000, 200, 3)
	ref := m.part(t, &workflow.Dataset{Reference: ds.Reference})
	readsA, readsB := m.part(t, &workflow.Dataset{Reads: ds.Reads[:100]}), m.part(t, &workflow.Dataset{Reads: ds.Reads[100:]})
	oneRead := m.part(t, &workflow.Dataset{Reads: ds.Reads[:1]})
	pastReads := m.part(t, &workflow.Dataset{Alignments: []genomics.Alignment{{Pos: 1, Read: 1, Len: 100}}, Mapped: 1})
	// The parts are all held before the worker's first poll reads them.
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 1, &http.Client{Transport: m})
	w, err := workflow.DefaultCatalogue().Get("dna-variant-detection")
	if err != nil {
		t.Fatal(err)
	}
	call := slices.IndexFunc(w.Stages, func(s workflow.Stage) bool { return s.Name == "UnifiedGenotyper" })
	run := func() (*workflow.Result, error) {
		e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
		return e.RunByName(context.Background(), "dna-variant-detection", ds,
			workflow.RunOptions{ShardRecords: 1000, ShardPool: tf.coord})
	}
	for _, tc := range []struct {
		name   string
		mangle func(*Task)
		want   string
	}{
		{"no parts", func(t *Task) { t.ContextParts = nil }, "0 context parts"},
		{"repeated part", func(t *Task) { t.ContextParts = []string{ref, ref} }, "not a distinct SHA-256 hash"},
		{"more parts than fields", func(t *Task) { t.ContextParts = distinctHashes(workflow.MaxContextParts + 1) },
			fmt.Sprintf("%d context parts", workflow.MaxContextParts+1)},
		{"two parts set one field", func(t *Task) { t.ContextParts = []string{ref, readsA, readsB} }, "sets a field an earlier part set"},
		{"read index past the reads", func(t *Task) {
			t.Stage, t.Type, t.ContextParts = call, workflow.BAM, []string{ref, oneRead, pastReads}
		}, "names read 1 of 1"},
		// A worker that cuts the stage differently (another build) must
		// not transform shard 0 of its own cut as shard 0 of the
		// coordinator's.
		{"another cut", func(t *Task) { t.Options.ShardRecords = 7 }, "the coordinator cut 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m.mangle.Store(&tc.mangle)
			before := tf.coord.FleetMetrics()
			_, err := run()
			if err == nil || !strings.Contains(err.Error(), "fleet: worker") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run err = %v, want the worker's task error %q", err, tc.want)
			}
			after := tf.coord.FleetMetrics()
			if after.Completed != before.Completed || after.Redispatched-before.Redispatched != maxAttempts-1 {
				t.Fatalf("metrics %+v after %+v: want no commit and %d re-dispatches", after, before, maxAttempts-1)
			}
		})
	}
	m.mangle.Store(nil)
	got, err := run()
	if err != nil {
		t.Fatalf("the worker did not survive the malformed contexts: %v", err)
	}
	want, err := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4}).RunByName(
		context.Background(), "dna-variant-detection", ds, workflow.RunOptions{ShardRecords: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, want.Output), encode(t, got.Output)) {
		t.Fatal("distributed output diverges from local")
	}
}

// TestSecondJobShipsNoContext: a second dna-variant-detection job over the
// same upload, on a warm worker, fetches no blob, though its shard plan
// differs from the first job's: the worker takes every part from the
// streams it prepared for the first. The coordinator encodes none of the
// head stage's parts — it recalls the hashes of the reference and the
// reads — and encodes only the calling stage's new alignments, to hash
// them.
func TestSecondJobShipsNoContext(t *testing.T) {
	blobs := &blobCounter{}
	tf := startFleetWith(t, Options{Scaling: scheduler.AlwaysScale}, 1, &http.Client{Transport: blobs})
	ds := fastqDataset(t, 8000, 2000, 7)
	run := func(records int) []byte {
		e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
		res, err := e.RunByName(context.Background(), "dna-variant-detection", ds,
			workflow.RunOptions{ShardRecords: records, ShardPool: tf.coord})
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, res.Output)
	}
	first := run(500)
	fetched, before := blobs.fetches.Load(), tf.coord.FleetMetrics()
	if fetched != 3 || before.PartsEncoded != 3 {
		t.Fatalf("first job: %d fetches, metrics %+v; want the 3 parts fetched and encoded once", fetched, before)
	}
	second := run(400)
	after := tf.coord.FleetMetrics()
	if n := blobs.fetches.Load() - fetched; n != 0 {
		t.Fatalf("second job fetched %d blobs, want 0", n)
	}
	if enc, rec := after.PartsEncoded-before.PartsEncoded, after.PartsRecalled-before.PartsRecalled; enc != 1 || rec != 4 {
		t.Fatalf("second job: %d parts encoded, %d recalled; want 1 (the alignments) and 4", enc, rec)
	}
	if after.RemoteStages-before.RemoteStages != 2 || !bytes.Equal(first, second) {
		t.Fatalf("second job: %d remote stages, output equal %v", after.RemoteStages-before.RemoteStages, bytes.Equal(first, second))
	}
	tf.coord.mu.Lock()
	held := len(tf.coord.blobs)
	tf.coord.mu.Unlock()
	if held != 0 {
		t.Fatalf("coordinator holds %d context parts after the jobs, want 0", held)
	}
}

// TestConcurrentJobsShareParts: jobs running at once over one upload
// recall, pin and release the same context parts from several goroutines,
// and workers that join after the coordinator remembered those parts fetch
// them, so the coordinator encodes them on first GET, concurrently. Every
// job matches the local run, and no part outlives the jobs.
func TestConcurrentJobsShareParts(t *testing.T) {
	tf := startFleet(t, Options{Scaling: scheduler.AlwaysScale}, 1)
	ds := fastqDataset(t, 8000, 2000, 7)
	run := func(pool workflow.ShardPool) ([]byte, error) {
		e := workflow.NewEngine(workflow.EngineOptions{KB: seededKB(t), Workers: 4})
		res, err := e.RunByName(context.Background(), "dna-variant-detection", ds,
			workflow.RunOptions{ShardRecords: 250, ShardPool: pool})
		if err != nil {
			return nil, err
		}
		return workflow.EncodeDataset(res.Output)
	}
	want, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(tf.coord); err != nil { // the coordinator remembers the upload's parts
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		workers.Wait()
	})
	for i := range 2 {
		wk := NewWorker(WorkerOptions{Coordinator: tf.server.URL, Name: fmt.Sprint("late", i), Slots: 2, Logf: t.Logf})
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = wk.Run(ctx)
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return tf.coord.ReadyWorkers() >= 3 })
	before := tf.coord.FleetMetrics()
	errs := make(chan error, 4)
	for range 4 {
		go func() {
			got, err := run(tf.coord)
			if err == nil && !bytes.Equal(got, want) {
				err = errors.New("distributed output diverges from local")
			}
			errs <- err
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Four jobs encode their own alignments; the late workers' fetches of
	// the remembered reference and reads encode more.
	if enc := tf.coord.FleetMetrics().PartsEncoded - before.PartsEncoded; enc <= 4 {
		t.Fatalf("%d parts encoded: no remembered part was encoded on a fetch", enc)
	}
	tf.coord.mu.Lock()
	held := len(tf.coord.blobs)
	tf.coord.mu.Unlock()
	if held != 0 {
		t.Fatalf("coordinator holds %d context parts after the jobs, want 0", held)
	}
}
