package main

// Input generation. Every input the benchmark hands to scand is built here,
// in the benchmark process, from the run's seed with the substrates' own
// seeded generators, and rendered in the upload formats the registry
// decodes. Each dataset carries the ground truth its jobs are checked
// against and a digest of its bytes (same seed → same digest).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
)

// part is one named body part of a dataset upload.
type part struct {
	field string
	data  []byte
}

// truth is what a correct job over a dataset must report. Zero fields are
// not checked.
type truth struct {
	records  int // input records (reads, spectra, frames, rows)
	snvs     int // planted SNVs the caller should find
	proteins int // distinct proteins with at least one spectrum
	cells    int // planted cells over all frames
	modules  int // planted network modules
}

// dataset is one uploadable input.
type dataset struct {
	family string // upload family: fastq, mgf, tiff, feature-table
	parts  []part
	truth  truth
	// units counts the kernel work a job over the dataset does: reads,
	// spectra, pixels, node pairs.
	units int64
}

func (d *dataset) bytes() int64 {
	var n int64
	for _, p := range d.parts {
		n += int64(len(p.data))
	}
	return n
}

// digest is the hex SHA-256 over the dataset's family and parts.
func (d *dataset) digest() string {
	h := sha256.New()
	h.Write([]byte(d.family))
	for _, p := range d.parts {
		h.Write([]byte(p.field))
		h.Write(p.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genFASTQ simulates reads over a reference with planted SNVs; the
// reference rides along as the upload's "reference" part.
func genFASTQ(seed int64, refLen, reads, snvs int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.GenerateReference(rng, "chr1", refLen)
	mutated, planted := genomics.PlantSNVs(rng, ref, snvs)
	rs, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: reads, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		return nil, err
	}
	var fq, fa bytes.Buffer
	if err := genomics.WriteAllFASTQ(&fq, rs); err != nil {
		return nil, err
	}
	if err := genomics.WriteFASTA(&fa, []genomics.Sequence{ref}, 0); err != nil {
		return nil, err
	}
	return &dataset{
		family: "fastq",
		parts:  []part{{"data", fq.Bytes()}, {"reference", fa.Bytes()}},
		truth:  truth{records: reads, snvs: len(planted)},
		units:  int64(reads),
	}, nil
}

// simulateProteome replays scand's own proteome generator (three peptides
// per protein, its acquisition noise) and also returns how many proteins
// drew at least one spectrum — what a correct search identifies.
func simulateProteome(seed int64, proteins, spectra int) (proteome.Database, []proteome.Spectrum, int, error) {
	rng := rand.New(rand.NewSource(seed))
	db := proteome.GenerateDatabase(rng, proteins, 3)
	specs, src, err := proteome.SimulateSpectra(rng, db, proteome.SimConfig{
		Count: spectra, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	seen := map[string]bool{}
	for _, pi := range src {
		seen[db.Peptides[pi].Protein] = true
	}
	return db, specs, len(seen), err
}

// genMGF renders a simulated proteome as the peptide table and MGF scans
// an mgf upload carries.
func genMGF(seed int64, proteins, spectra int) (*dataset, error) {
	db, specs, identified, err := simulateProteome(seed, proteins, spectra)
	if err != nil {
		return nil, err
	}
	var pep, mgf bytes.Buffer
	var num []byte
	for _, p := range db.Peptides {
		pep.WriteString(p.Protein)
		pep.WriteByte(' ')
		pep.WriteString(p.Name)
		pep.WriteByte(' ')
		for i, m := range p.Masses {
			if i > 0 {
				pep.WriteByte(',')
			}
			pep.Write(strconv.AppendFloat(num[:0], m, 'f', 4, 64))
		}
		pep.WriteByte('\n')
	}
	for _, s := range specs {
		mgf.WriteString("BEGIN IONS\nTITLE=")
		mgf.WriteString(s.ID)
		mgf.WriteByte('\n')
		for _, m := range s.Peaks {
			mgf.Write(strconv.AppendFloat(num[:0], m, 'f', 4, 64))
			mgf.WriteString(" 1\n")
		}
		mgf.WriteString("END IONS\n")
	}
	return &dataset{
		family: "mgf",
		parts:  []part{{"peptides", pep.Bytes()}, {"spectra", mgf.Bytes()}},
		truth:  truth{records: spectra, proteins: identified},
		units:  int64(spectra),
	}, nil
}

// genFrames renders microscopy frames with planted cells as concatenated
// plain-text PGM images, the registry's stand-in for TIFF.
func genFrames(seed int64, frames, side, cellsPerFrame int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	var pgm bytes.Buffer
	var num []byte
	for f := 0; f < frames; f++ {
		im, _, err := imaging.Generate(rng, fmt.Sprintf("img%d", f), imaging.SimConfig{
			W: side, H: side, Cells: cellsPerFrame,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&pgm, "P2\n%d %d\n255\n", im.W, im.H)
		for i, v := range im.Pix {
			pgm.Write(strconv.AppendInt(num[:0], int64(math.Round(v*255)), 10))
			if (i+1)%im.W == 0 {
				pgm.WriteByte('\n')
			} else {
				pgm.WriteByte(' ')
			}
		}
	}
	return &dataset{
		family: "tiff",
		parts:  []part{{"data", pgm.Bytes()}},
		truth:  truth{records: frames, cells: frames * cellsPerFrame},
		units:  int64(frames) * int64(side) * int64(side),
	}, nil
}

// pairs is the number of node pairs the network build compares.
func pairs(n int) int64 { return int64(n) * int64(n-1) / 2 }

// genFeatures draws gene measurements from planted modules.
func genFeatures(seed int64, genes, modules int) (*dataset, error) {
	ms, _, err := network.SimulateMeasurements(rand.New(rand.NewSource(seed)), genes, modules)
	if err != nil {
		return nil, err
	}
	var rows bytes.Buffer
	for _, m := range ms {
		fmt.Fprintf(&rows, "%s %.6f\n", m.Name, m.Value)
	}
	return &dataset{
		family: "feature-table",
		parts:  []part{{"data", rows.Bytes()}},
		truth:  truth{records: genes, modules: modules},
		units:  pairs(genes),
	}, nil
}
