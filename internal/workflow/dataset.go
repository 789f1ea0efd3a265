package workflow

import (
	"fmt"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
)

// Dataset is the typed payload the engine drives through a workflow's stage
// chain — one struct spanning all four data-process families, so any
// catalogued workflow runs through the same engine. Type names the format
// of the *current* payload (matching the stage's Consumes/Produces
// declaration); downstream fields accumulate: a stage that turns alignments
// into variant calls keeps the alignments it consumed, so the workflow's
// final output still carries the derived artifacts a caller may want (the
// alignments behind a call set, say). Reads are kept too, since alignments
// point at them; the other raw input payloads — Spectra, Images — are
// released by the stage that consumes them.
type Dataset struct {
	// Type is the data type of the current payload.
	Type DataType
	// Reference is the genome the payload is expressed against; executors
	// for alignment and calling stages require it.
	Reference genomics.Sequence
	// PeptideDB is the reference peptide index MGF spectra are searched
	// against; proteomic stages require it.
	PeptideDB proteome.Database

	// Reads is the FASTQ payload.
	Reads []genomics.Read
	// Alignments is the BAM payload, coordinate-sorted with unmapped
	// records last; region shards are runs of it. A BAM payload keeps the
	// Reads it was aligned from: each record names its read by index.
	Alignments []genomics.Alignment
	// Mapped counts the alignments that mapped.
	Mapped int
	// Variants is the VCF payload (sorted, deduplicated).
	Variants []genomics.Variant
	// Features is the FeatureTable payload.
	Features []Feature
	// Spectra is the MGF payload.
	Spectra []proteome.Spectrum
	// Proteins is the ProteinTable payload (sorted by protein name).
	Proteins []proteome.ProteinQuant
	// Images is the TIFF payload.
	Images []imaging.Image
	// Net is the Network payload.
	Net *network.Network
}

// Feature is one row of a FeatureTable payload: a quantified signal over a
// reference interval (per-bin expression, image phenotypes, ...).
type Feature struct {
	// Name identifies the feature, e.g. "chr1:1-1000".
	Name string
	// Start and End bound the interval (1-based inclusive) when the
	// feature is positional; zero otherwise.
	Start, End int
	// Count is the number of records supporting the feature.
	Count int
	// Value is the quantified signal (mean coverage for expression).
	Value float64
}

// Records returns the number of records in the current payload — the unit
// the Data Broker's shard-size advice applies to.
func (d *Dataset) Records() int {
	switch d.Type {
	case FASTQ:
		return len(d.Reads)
	case BAM:
		return len(d.Alignments)
	case VCF:
		return len(d.Variants)
	case FeatureTable:
		return len(d.Features)
	case MGF:
		return len(d.Spectra)
	case ProteinTable:
		return len(d.Proteins)
	case TIFF:
		return len(d.Images)
	case Network:
		if d.Net == nil {
			return 0
		}
		return len(d.Net.Nodes)
	default:
		return 0
	}
}

// NewFASTQDataset wraps simulated or parsed reads as a workflow input.
func NewFASTQDataset(ref genomics.Sequence, reads []genomics.Read) *Dataset {
	return &Dataset{Type: FASTQ, Reference: ref, Reads: reads}
}

// NewVCFDataset wraps variant calls as a workflow input (gather workflows
// such as variants-to-vcf).
func NewVCFDataset(ref genomics.Sequence, variants []genomics.Variant) *Dataset {
	return &Dataset{Type: VCF, Reference: ref, Variants: variants}
}

// NewMGFDataset wraps MS/MS spectra and their reference peptide database as
// a proteomic workflow input.
func NewMGFDataset(db proteome.Database, spectra []proteome.Spectrum) *Dataset {
	return &Dataset{Type: MGF, PeptideDB: db, Spectra: spectra}
}

// NewTIFFDataset wraps microscopy frames as an imaging workflow input.
func NewTIFFDataset(images []imaging.Image) *Dataset {
	return &Dataset{Type: TIFF, Images: images}
}

// NewFeatureDataset wraps a feature table as an integrative workflow input
// (gene-level measurements feeding network construction).
func NewFeatureDataset(features []Feature) *Dataset {
	return &Dataset{Type: FeatureTable, Features: features}
}

// String renders a short payload summary for logs.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s[%d records]", d.Type, d.Records())
}
