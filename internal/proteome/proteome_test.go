package proteome

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestGenerateDatabaseDeterministic(t *testing.T) {
	a := GenerateDatabase(rand.New(rand.NewSource(1)), 5, 3)
	b := GenerateDatabase(rand.New(rand.NewSource(1)), 5, 3)
	if len(a.Peptides) != 15 || len(b.Peptides) != 15 {
		t.Fatalf("peptides = %d, %d, want 15", len(a.Peptides), len(b.Peptides))
	}
	for i := range a.Peptides {
		if a.Peptides[i].Name != b.Peptides[i].Name {
			t.Fatalf("peptide %d differs: %q vs %q", i, a.Peptides[i].Name, b.Peptides[i].Name)
		}
		for j := range a.Peptides[i].Masses {
			if a.Peptides[i].Masses[j] != b.Peptides[i].Masses[j] {
				t.Fatalf("peptide %d mass %d differs", i, j)
			}
		}
	}
	if got := a.Proteins(); got != 5 {
		t.Fatalf("proteins = %d, want 5", got)
	}
	// Fragment ladders arrive sorted, the form the peptide decoder produces.
	for _, p := range a.Peptides {
		for j := 1; j < len(p.Masses); j++ {
			if p.Masses[j-1] > p.Masses[j] {
				t.Fatalf("peptide %s masses unsorted", p.Name)
			}
		}
	}
}

func TestSearchRecoversTruePeptides(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := GenerateDatabase(rng, 20, 3)
	// Full acquisition noise: dropout, mass jitter and spurious peaks.
	spectra, truth, err := SimulateSpectra(rng, db, SimConfig{
		Count: 300, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, sp := range spectra {
		m := Search(db, sp, Config{})
		if m.Peptide == truth[i] {
			correct++
		}
		if m.Peptide >= 0 && (m.Score <= 0 || m.Score > 1) {
			t.Fatalf("spectrum %s: score %v out of range", sp.ID, m.Score)
		}
	}
	// 10% dropout leaves ≥ 90% of fragments on average; with fragments of
	// unrelated peptides spread over 1800 Da, essentially every assigned
	// spectrum resolves to its source peptide.
	if correct < len(spectra)*95/100 {
		t.Fatalf("recovered %d/%d spectra", correct, len(spectra))
	}
}

func TestSearchRejectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := GenerateDatabase(rng, 10, 2)
	// A pure-noise spectrum matches nothing above the score floor.
	noise := Spectrum{ID: "noise", Peaks: []float64{150, 400, 750, 1100, 1500}}
	if m := Search(db, noise, Config{}); m.Peptide != -1 || m.Score != 0 {
		t.Fatalf("noise spectrum matched: %+v", m)
	}
}

func TestQuantifyGathersByProtein(t *testing.T) {
	db := Database{Peptides: []Peptide{
		{Protein: "P000", Name: "P000.pep0", Masses: []float64{100}},
		{Protein: "P000", Name: "P000.pep1", Masses: []float64{200}},
		{Protein: "P001", Name: "P001.pep0", Masses: []float64{300}},
	}}
	matches := []Match{
		{Spectrum: "s0", Peptide: 0, Score: 0.9},
		{Spectrum: "s1", Peptide: 0, Score: 0.8},
		{Spectrum: "s2", Peptide: 1, Score: 1.0},
		{Spectrum: "s3", Peptide: 2, Score: 0.7},
		{Spectrum: "s4", Peptide: -1}, // unassigned: dropped
	}
	out := NewIndex(db, Config{}).Quantify(matches)
	if len(out) != 2 || out[0].Protein != "P000" || out[1].Protein != "P001" {
		t.Fatalf("quant = %+v", out)
	}
	p0 := out[0]
	if p0.Peptides != 2 || p0.Spectra != 3 || p0.Abundance < 2.69 || p0.Abundance > 2.71 {
		t.Fatalf("P000 = %+v", p0)
	}
	if out[1].Spectra != 1 || out[1].Peptides != 1 {
		t.Fatalf("P001 = %+v", out[1])
	}
}

func TestQuantifyIsGatherOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := GenerateDatabase(rng, 8, 2)
	spectra, _, err := SimulateSpectra(rng, db, SimConfig{
		Count: 120, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := make([]Match, len(spectra))
	for i, sp := range spectra {
		matches[i] = Search(db, sp, Config{})
	}
	reversed := make([]Match, len(matches))
	for i, m := range matches {
		reversed[len(matches)-1-i] = m
	}
	ix := NewIndex(db, Config{})
	a, b := ix.Quantify(matches), ix.Quantify(reversed)
	if len(a) != len(b) {
		t.Fatalf("gather order changed protein count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Protein != b[i].Protein || a[i].Peptides != b[i].Peptides || a[i].Spectra != b[i].Spectra {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
		// Abundance is a float sum: equal up to summation-order rounding.
		if d := a[i].Abundance - b[i].Abundance; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d abundance differs: %v vs %v", i, a[i].Abundance, b[i].Abundance)
		}
	}
}

// mapQuantify is the string-keyed gather Index.Quantify replaced, kept as
// the reference it must agree with bit for bit.
func mapQuantify(db Database, matches []Match) []ProteinQuant {
	type acc struct {
		peptides map[string]bool
		spectra  int
		score    float64
	}
	byProtein := map[string]*acc{}
	for _, m := range matches {
		if m.Peptide < 0 || m.Peptide >= len(db.Peptides) {
			continue
		}
		pep := db.Peptides[m.Peptide]
		a := byProtein[pep.Protein]
		if a == nil {
			a = &acc{peptides: map[string]bool{}}
			byProtein[pep.Protein] = a
		}
		a.peptides[pep.Name] = true
		a.spectra++
		a.score += m.Score
	}
	out := make([]ProteinQuant, 0, len(byProtein))
	for name, a := range byProtein {
		out = append(out, ProteinQuant{
			Protein:   name,
			Peptides:  len(a.peptides),
			Spectra:   a.spectra,
			Abundance: a.score,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Protein < out[j].Protein })
	return out
}

// checkQuantify fails t unless the index gather and the map gather agree
// on every row, with Abundance equal bit for bit.
func checkQuantify(t *testing.T, db Database, matches []Match) {
	t.Helper()
	got, want := NewIndex(db, Config{}).Quantify(matches), mapQuantify(db, matches)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		g, w := got[i], want[i]
		same = g.Protein == w.Protein && g.Peptides == w.Peptides && g.Spectra == w.Spectra &&
			math.Float64bits(g.Abundance) == math.Float64bits(w.Abundance)
	}
	if !same {
		t.Fatalf("index gather %+v, map gather %+v\ndb %+v\nmatches %+v", got, want, db, matches)
	}
}

// TestQuantifyMatchesMapGather quick-checks Index.Quantify against the map
// gather it replaced: protein and peptide names shared across and within
// proteins, matches naming no peptide, and scores of every magnitude —
// NaN and ±Inf included — whose sums round differently in another order.
func TestQuantifyMatchesMapGather(t *testing.T) {
	for c := 0; c < 300; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		db := Database{Peptides: make([]Peptide, rng.Intn(20))}
		for i := range db.Peptides {
			db.Peptides[i] = Peptide{Protein: fmt.Sprint("P", rng.Intn(6)), Name: fmt.Sprint("n", rng.Intn(4))}
		}
		matches := make([]Match, rng.Intn(200))
		for i := range matches {
			score := math.Ldexp(rng.Float64(), rng.Intn(120)-60)
			if rng.Intn(40) == 0 {
				score = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
			}
			matches[i] = Match{Spectrum: "s", Peptide: rng.Intn(len(db.Peptides)+3) - 2, Score: score}
		}
		checkQuantify(t, db, matches)
	}
}

// FuzzQuantify runs the map-gather comparison on fuzzed databases and
// matches. After the first byte, which counts peptides, one byte per
// peptide names its protein (low two bits) and the peptide (next two);
// the rest are pairs of a peptide index (from -1 to one past the last)
// and a binary exponent that scales unit into the match's score.
func FuzzQuantify(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x04, 0x01, 1, 128, 2, 100, 3, 160, 0, 128, 1, 70}, 0.75)
	f.Add([]byte{2, 0x05, 0x05, 1, 128, 2, 128, 1, 200}, math.Inf(1))
	f.Add([]byte{0, 1, 1}, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, unit float64) {
		if len(data) == 0 || len(data) < 1+int(data[0]%16) {
			return
		}
		n := int(data[0] % 16)
		db := Database{Peptides: make([]Peptide, n)}
		for i, b := range data[1 : 1+n] {
			db.Peptides[i] = Peptide{Protein: fmt.Sprint("P", b&3), Name: fmt.Sprint("n", b>>2&3)}
		}
		var matches []Match
		for rest := data[1+n:]; len(rest) >= 2; rest = rest[2:] {
			matches = append(matches, Match{Peptide: int(rest[0])%(n+2) - 1, Score: math.Ldexp(unit, int(rest[1])-128)})
		}
		checkQuantify(t, db, matches)
	})
}

// quantSink keeps BenchmarkQuantify's tables alive.
var quantSink []ProteinQuant

// BenchmarkQuantify gathers 20 000 matches of the benchmark acquisition,
// by index and, for reference, by the map gather it replaced.
func BenchmarkQuantify(b *testing.B) {
	db, spectra := benchData(b)
	ix, s := NewIndex(db, Config{}), new(Scratch)
	matches := make([]Match, 20000)
	for i := range matches {
		matches[i] = ix.Search(spectra[i%len(spectra)], s)
	}
	for _, bc := range []struct {
		name   string
		gather func([]Match) []ProteinQuant
	}{
		{"index", ix.Quantify},
		{"map", func(ms []Match) []ProteinQuant { return mapQuantify(db, ms) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quantSink = bc.gather(matches)
			}
		})
	}
}

func TestSimulateSpectraValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := SimulateSpectra(rng, Database{}, SimConfig{Count: 1}); err == nil {
		t.Fatal("empty database accepted")
	}
	db := GenerateDatabase(rng, 1, 1)
	if _, _, err := SimulateSpectra(rng, db, SimConfig{Count: 0}); err == nil {
		t.Fatal("zero spectra accepted")
	}
	if _, _, err := SimulateSpectra(rng, db, SimConfig{Count: 1, NoisePeaks: -1}); err == nil {
		t.Fatal("negative noise peaks accepted")
	}
	// An all-zero noise config is a clean acquisition, not "defaults":
	// every spectrum is its peptide's exact fragment ladder.
	spectra, truth, err := SimulateSpectra(rng, db, SimConfig{Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spectra {
		pep := db.Peptides[truth[i]]
		if len(sp.Peaks) != len(pep.Masses) {
			t.Fatalf("clean spectrum %d has %d peaks, peptide has %d fragments",
				i, len(sp.Peaks), len(pep.Masses))
		}
		for j := range sp.Peaks {
			if sp.Peaks[j] != pep.Masses[j] {
				t.Fatalf("clean spectrum %d peak %d jittered", i, j)
			}
		}
	}
}
