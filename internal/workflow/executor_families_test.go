package workflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scan/internal/align"
	"scan/internal/imaging"
	"scan/internal/knowledge"
	"scan/internal/network"
	"scan/internal/proteome"
)

func mgfDataset(t testing.TB, proteins, spectra int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := proteome.GenerateDatabase(rng, proteins, 3)
	sp, _, err := proteome.SimulateSpectra(rng, db, proteome.SimConfig{
		Count: spectra, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewMGFDataset(db, sp)
}

func tiffDataset(t testing.TB, images, cells int, seed int64) (*Dataset, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frames := make([]imaging.Image, 0, images)
	planted := 0
	for i := 0; i < images; i++ {
		im, cs, err := imaging.Generate(rng, fmt.Sprintf("img%d", i), imaging.SimConfig{W: 96, H: 96, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, im)
		planted += len(cs)
	}
	return NewTIFFDataset(frames), planted
}

func featureDataset(t testing.TB, genes, modules int, seed int64) *Dataset {
	t.Helper()
	ms, _, err := network.SimulateMeasurements(rand.New(rand.NewSource(seed)), genes, modules)
	if err != nil {
		t.Fatal(err)
	}
	features := make([]Feature, len(ms))
	for i, m := range ms {
		features[i] = Feature{Name: m.Name, Count: 1, Value: m.Value}
	}
	return NewFeatureDataset(features)
}

// runLogCount queries the KB for RunLog individuals of one tool at one
// stage position — the per-family telemetry the executors must leave
// behind.
func runLogCount(t testing.TB, kb *knowledge.Base, app string, stage int) int {
	t.Helper()
	res, err := kb.Query(fmt.Sprintf(`
PREFIX scan: <%s>
SELECT ?run WHERE {
  ?run a scan:RunLog ;
       scan:application scan:%s ;
       scan:stage %d .
}`, knowledge.NS, app, stage))
	if err != nil {
		t.Fatal(err)
	}
	return res.Len()
}

func TestProteomeWorkflowsEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		workflow, stage, tool string
		quantified            bool
	}{
		{"proteome-maxquant", "Quantify", "MaxQuant", true},
		{"proteome-gpm", "Search", "GPM", false},
	} {
		kb := seededKB(t)
		e := NewEngine(EngineOptions{KB: kb, Workers: 4})
		ds := mgfDataset(t, 20, 400, 17)
		res, err := e.RunByName(context.Background(), tc.workflow, ds, RunOptions{ShardRecords: 100})
		if err != nil {
			t.Fatalf("%s: %v", tc.workflow, err)
		}
		out := res.Output
		if out.Type != ProteinTable {
			t.Fatalf("%s: output type = %s", tc.workflow, out.Type)
		}
		// 400 spectra over 20 proteins: every protein collects evidence.
		if len(out.Proteins) != 20 {
			t.Fatalf("%s: %d proteins quantified, want 20", tc.workflow, len(out.Proteins))
		}
		totalSpectra := 0
		for _, p := range out.Proteins {
			totalSpectra += p.Spectra
			if p.Peptides < 1 {
				t.Fatalf("%s: protein %s with no peptide evidence", tc.workflow, p.Protein)
			}
			if tc.quantified && p.Abundance <= 0 {
				t.Fatalf("%s: protein %s not quantified", tc.workflow, p.Protein)
			}
			if !tc.quantified && p.Abundance != 0 {
				t.Fatalf("%s: search-only run carries abundance %v", tc.workflow, p.Abundance)
			}
		}
		if totalSpectra < 380 { // ≥95% of spectra assign to their source peptide
			t.Fatalf("%s: only %d/400 spectra matched", tc.workflow, totalSpectra)
		}
		// The raw spectra are released once consumed, like FASTQ reads.
		if out.Spectra != nil {
			t.Fatalf("%s: consumed spectra not released", tc.workflow)
		}
		// Spectrum-shard scatter: 400 spectra at 100/shard = 4 shards, each
		// logging telemetry under the family's tool name.
		if len(res.Stages) != 1 || res.Stages[0].Stage != tc.stage || res.Stages[0].Shards != 4 {
			t.Fatalf("%s: stages = %+v", tc.workflow, res.Stages)
		}
		if got := runLogCount(t, kb, tc.tool, 0); got != 4 {
			t.Fatalf("%s: %d %s run logs, want 4", tc.workflow, got, tc.tool)
		}
	}
}

func TestImagingWorkflowEndToEnd(t *testing.T) {
	kb := seededKB(t)
	e := NewEngine(EngineOptions{KB: kb, Workers: 4})
	ds, planted := tiffDataset(t, 3, 5, 23)
	res, err := e.RunByName(context.Background(), "cell-imaging", ds, RunOptions{Regions: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if out.Type != FeatureTable {
		t.Fatalf("output type = %s", out.Type)
	}
	// Tile-overlap segmentation recovers exactly the planted cells: no
	// double counting across tile boundaries, no misses.
	if len(out.Features) != planted {
		t.Fatalf("features = %d, want %d planted cells", len(out.Features), planted)
	}
	for _, f := range out.Features {
		if f.Count < 9 || f.Value < 0.7 {
			t.Fatalf("implausible cell feature %+v", f)
		}
	}
	if out.Images != nil {
		t.Fatal("consumed images not released")
	}
	// 3 images × 4 tiles each = 12 scatter units.
	if len(res.Stages) != 1 || res.Stages[0].Shards != 12 {
		t.Fatalf("stages = %+v", res.Stages)
	}
	if got := runLogCount(t, kb, "CellProfiler", 0); got != 12 {
		t.Fatalf("%d CellProfiler run logs, want 12", got)
	}
}

func TestNetworkWorkflowEndToEnd(t *testing.T) {
	kb := seededKB(t)
	e := NewEngine(EngineOptions{KB: kb, Workers: 4})
	ds := featureDataset(t, 60, 4, 29)
	res, err := e.RunByName(context.Background(), "integrative-network", ds, RunOptions{ShardRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if out.Type != Network || out.Net == nil {
		t.Fatalf("output = %s, net = %v", out.Type, out.Net)
	}
	if len(out.Net.Nodes) != 60 || out.Net.Edges == 0 {
		t.Fatalf("network = %d nodes, %d edges", len(out.Net.Nodes), out.Net.Edges)
	}
	// The scattered network recovers the planted module structure.
	if len(out.Net.Modules) != 4 {
		t.Fatalf("modules = %d, want 4 planted", len(out.Net.Modules))
	}
	covered := 0
	for _, m := range out.Net.Modules {
		covered += len(m)
	}
	if covered != 60 {
		t.Fatalf("modules cover %d nodes, want 60", covered)
	}
	// 60 nodes at 20 a shard = 3 rank ranges.
	if len(res.Stages) != 1 || res.Stages[0].Shards != 3 {
		t.Fatalf("stages = %+v", res.Stages)
	}
	if got := runLogCount(t, kb, "Cytoscape", 0); got != 3 {
		t.Fatalf("%d Cytoscape run logs, want 3", got)
	}
}

// TestExpressionFeedsIntegration chains two families: the rna-expression
// FeatureTable output, one row per reference bin, is a valid
// integrative-network input, so multi-omics pipelines compose through the
// catalogue's shared data types.
func TestExpressionFeedsIntegration(t *testing.T) {
	e := testEngine(t, 4)
	ds := synthDataset(t, 8000, 2000, 31)
	expr, err := e.RunByName(context.Background(), "rna-expression", ds, RunOptions{Regions: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunByName(context.Background(), "integrative-network",
		NewFeatureDataset(expr.Output.Features), RunOptions{ShardRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bins := 8000 / quantifyBinWidth; res.Output.Type != Network || len(res.Output.Net.Nodes) != bins {
		t.Fatalf("chained output = %+v", res.Output)
	}
}

// TestProteomeAdviceFromBroker: with no ShardRecords override, the
// proteomic scatter consults the Data Broker exactly like the genomic
// aligner — the shard plan and advice land on the stage result.
func TestProteomeAdviceFromBroker(t *testing.T) {
	e := testEngine(t, 2)
	ds := mgfDataset(t, 10, 200, 41)
	res, err := e.RunByName(context.Background(), "proteome-maxquant", ds, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := res.RecordScatter()
	if !ok {
		t.Fatal("no record scatter recorded")
	}
	if sr.Advice.BasedOn == "" || sr.Plan.NumShards < 1 {
		t.Fatalf("scatter = %+v", sr)
	}
}

// countdownCtx cancels itself after a fixed number of Err polls — a
// deterministic stand-in for "the user cancelled mid-shard" that needs no
// timing assumptions.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestCancellationInterruptsShardMidFlight proves the per-record context
// polls inside the family executors' inner loops: with input far larger
// than one poll interval, a context that cancels after a few polls must
// abort the shard in flight rather than run it to completion.
func TestCancellationInterruptsShardMidFlight(t *testing.T) {
	t.Run("genomics-align", func(t *testing.T) {
		ds := synthDataset(t, 8000, 2000, 26)
		e := testEngine(t, 1)
		env := &StageEnv{engine: e, opts: RunOptions{}, result: &StageResult{}}
		st, _, err := alignExecutor{}.Stream(env, ds)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Transform(newCountdownCtx(2), 0, StreamShard{Records: len(ds.Reads), Data: ds.Reads})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("proteome-search", func(t *testing.T) {
		ds := mgfDataset(t, 30, 2000, 27)
		e := testEngine(t, 1)
		env := &StageEnv{engine: e, opts: RunOptions{}, result: &StageResult{}}
		st, _, err := spectralSearchExecutor{}.Stream(env, ds)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Transform(newCountdownCtx(2), 0, StreamShard{Records: len(ds.Spectra), Data: ds.Spectra})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("network-integrate", func(t *testing.T) {
		ds := featureDataset(t, 300, 4, 28)
		e := testEngine(t, 1)
		env := &StageEnv{engine: e, opts: RunOptions{ShardRecords: 1000}, result: &StageResult{}, input: ds}
		_, err := env.runStream(newCountdownCtx(2), streamOnly{integrateExecutor{}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// hostileFrames draws frames that stress the tile scatter: a 70×70 square
// wider than any tile, a fully bright frame, a one-pixel snake through
// every row, a 50 % random frame with pixels at exactly the threshold, an
// empty frame, a frame narrower than its tile grid, cells centred on the
// borders of many tilings and a NaN pixel beside a cell.
func hostileFrames(t testing.TB, seed int64) *Dataset {
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
	return NewTIFFDataset(frames)
}

// TestImagingWorkflowIgnoresPlan: cell-imaging's answer is a function of
// its frames, not of its tile plan — 1, 2, 7 or 1 000 tiles per frame on a
// pool of 1, 2 or 8 — down to the encoded bytes, on the hostile frames.
func TestImagingWorkflowIgnoresPlan(t *testing.T) {
	tilings := func(int) []RunOptions {
		return []RunOptions{{Regions: 1}, {Regions: 2}, {Regions: 7}, {Regions: 1000}}
	}
	ignoresPlan(t, "cell-imaging", hostileFrames(t, 5), false, tilings, func(pool int, opts RunOptions, res *Result) {
		cells := map[string]int{}
		for _, f := range res.Output.Features {
			frame, _, _ := strings.Cut(f.Name, ":")
			cells[frame]++
			if math.IsNaN(f.Value) || f.Value < 0.5 {
				t.Fatalf("pool %d, %d regions: cell %+v below the threshold", pool, opts.Regions, f)
			}
		}
		if f := res.Output.Features[0]; cells["square"] != 1 || f.Count != 70*70 {
			t.Fatalf("pool %d, %d regions: square is %d cells, the first %+v", pool, opts.Regions, cells["square"], f)
		}
		if cells["bright"] != 1 || cells["snake"] != 1 || cells["empty"] != 0 || cells["borders"] != 8 || cells["nan"] != 1 {
			t.Fatalf("pool %d, %d regions: cells per frame %v", pool, opts.Regions, cells)
		}
	})
}

// hostileSpectra draws an acquisition that stresses the spectrum scatter.
// Its database adds a copy of the first peptide under another protein, so
// every spectrum of that peptide ties; a second peptide under the name of
// an existing one; and a ladder with NaN, ±Inf and duplicate masses. Its
// spectra, shuffled among the simulated ones, add an empty one, one of
// NaN and ±Inf peaks only, the tied peptide's with non-finite peaks, one
// repeating every peak, one hitting the special ladder, and one covering
// two peptides' ladders equally.
func hostileSpectra(t testing.TB, seed int64) *Dataset {
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
		sort.Float64s(peaks)
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
	return NewMGFDataset(proteome.Database{Peptides: peps}, spectra)
}

// TestReferenceIndexOncePerPayload: an engine builds a reference's seed
// index and a peptide database's fragment-ion index once, for every stage
// over that payload. An equal copy, another kernel config or another
// payload gets its own, and the newest payload's index replaces the
// previous one.
func TestReferenceIndexOncePerPayload(t *testing.T) {
	e := testEngine(t, 2)
	aligner := func(ds *Dataset, cfg align.Config) *align.Aligner {
		t.Helper()
		env := &StageEnv{engine: e, opts: RunOptions{Aligner: cfg}, result: &StageResult{}}
		st, _, err := alignExecutor{}.Stream(env, ds)
		if err != nil {
			t.Fatal(err)
		}
		a, err := st.(*alignStream).index()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	peptideIndex := func(ds *Dataset) *proteome.Index {
		t.Helper()
		env := &StageEnv{engine: e, opts: RunOptions{}, result: &StageResult{}}
		st, _, err := spectralSearchExecutor{quantify: true}.Stream(env, ds)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := st.(*spectralStream).index()
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}

	t.Run("aligner", func(t *testing.T) {
		ds, other := synthDataset(t, 3000, 50, 1), synthDataset(t, 3000, 50, 2)
		first := aligner(ds, align.Config{})
		if aligner(ds, align.Config{}) != first || aligner(&Dataset{Reference: ds.Reference}, align.Config{}) != first {
			t.Fatal("a second stage over one reference built another seed index")
		}
		clone := &Dataset{Reference: ds.Reference}
		clone.Reference.Seq = slices.Clone(ds.Reference.Seq)
		if aligner(clone, align.Config{}) == first {
			t.Fatal("an equal copy of the reference shared the first one's index")
		}
		again := aligner(ds, align.Config{})
		if again == first || aligner(ds, align.Config{K: 12}) == again {
			t.Fatal("another payload or config did not get its own index")
		}
		second := aligner(other, align.Config{})
		if aligner(other, align.Config{}) != second || aligner(ds, align.Config{}) == again {
			t.Fatal("the second reference did not replace the first")
		}
	})
	t.Run("peptides", func(t *testing.T) {
		ds, other := mgfDataset(t, 10, 20, 1), mgfDataset(t, 10, 20, 2)
		first := peptideIndex(ds)
		if peptideIndex(ds) != first || peptideIndex(&Dataset{PeptideDB: ds.PeptideDB}) != first {
			t.Fatal("a second stage over one database built another fragment-ion index")
		}
		clone := &Dataset{PeptideDB: ds.PeptideDB}
		clone.PeptideDB.Peptides = slices.Clone(ds.PeptideDB.Peptides)
		if peptideIndex(clone) == first {
			t.Fatal("an equal copy of the database shared the first one's index")
		}
		second := peptideIndex(other)
		if peptideIndex(other) != second || peptideIndex(ds) == first {
			t.Fatal("the second database did not replace the first")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		e = testEngine(t, 2)
		ds := synthDataset(t, 3000, 50, 3)
		const stages = 8
		got := make([]*align.Aligner, stages)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := &StageEnv{engine: e, opts: RunOptions{}, result: &StageResult{}}
				st, _, err := alignExecutor{}.Stream(env, ds)
				if err != nil {
					t.Error(err)
					return
				}
				got[i], err = st.(*alignStream).index()
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i, a := range got {
			if a == nil || a != got[0] {
				t.Fatalf("stage %d got seed index %p, stage 0 %p", i, a, got[0])
			}
		}
	})
}
