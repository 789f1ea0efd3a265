package proteome

import (
	"math/rand"
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
	out := Quantify(db, matches)
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
	a, b := Quantify(db, matches), Quantify(db, reversed)
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
