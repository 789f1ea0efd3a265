package rpc

import (
	"fmt"
	"math/rand"

	"scan/internal/core"
	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
	"scan/internal/registry"
	"scan/internal/workflow"
)

// A job's input is one source: a daemon-generated dataset of one of the
// four data-process families (SyntheticSpec, ProteomeSpec, ImagingSpec,
// NetworkSpec), inline sequencing records (inlineInput), or a registered
// upload (datasetInput). Only this file knows which kind a source is.
type source interface {
	// validate checks the submitted source and resolves what it names:
	// registry datasets are pinned, and reference ("" for none) names a
	// registered genome for the sequencing sources. On error the caller
	// still releases the source — pins taken before the failure included.
	validate(reg *registry.Store, reference string) *APIError
	// inputType is the workflow data type the source materializes as.
	inputType() workflow.DataType
	// origin renders the source on the Job resource: its Source value and,
	// for a registered dataset, the dataset id.
	origin() (kind, dataset string)
	// materialize builds the workflow input, plus the SNVs planted in it
	// (nil when the source plants none) for recovery scoring.
	materialize() (*workflow.Dataset, plantedSNVs, error)
	// release drops the payload and registry pins once the job can never
	// run again, freeing inline records for GC and making datasets
	// evictable and deletable. Idempotent.
	release(reg *registry.Store)
}

// source resolves the request's one dataset source.
func (req SubmitJobRequest) source() (source, *APIError) {
	var set []source
	add := func(ok bool, src source) {
		if ok {
			set = append(set, src)
		}
	}
	add(req.Synthetic != nil, req.Synthetic)
	add(req.Inline != nil, &inlineInput{wire: req.Inline})
	add(req.Proteome != nil, req.Proteome)
	add(req.Imaging != nil, req.Imaging)
	add(req.Network != nil, req.Network)
	add(req.Dataset != "", &datasetInput{key: req.Dataset})
	if len(set) != 1 {
		return nil, invalidf("exactly one of synthetic, inline, proteome, imaging, network or dataset must be set")
	}
	return set[0], nil
}

// defaultWorkflows maps a source's input data type to the workflow a
// submission that names none runs — one canonical analysis per family.
var defaultWorkflows = map[workflow.DataType]string{
	workflow.FASTQ:        core.VariantDetectionWorkflow,
	workflow.MGF:          "proteome-maxquant",
	workflow.TIFF:         "cell-imaging",
	workflow.FeatureTable: "integrative-network",
}

func invalidf(format string, args ...any) *APIError {
	return &APIError{Code: CodeInvalidArgument, Message: fmt.Sprintf(format, args...)}
}

// noReference rejects a named reference on a source that cannot use one.
func noReference(reference string) *APIError {
	if reference == "" {
		return nil
	}
	return invalidf("reference applies to sequencing submissions only (inline reads or a fastq dataset)")
}

// plantedSNVs is a generated genome's ground truth: the mutations planted
// before its reads were simulated.
type plantedSNVs []genomics.Mutation

// score fills the result's planted/recovered counts from a run's calls. A
// source that planted nothing scores 0/0.
func (p plantedSNVs) score(calls []genomics.Variant, r *JobResult) {
	r.Planted = len(p)
	if len(p) == 0 {
		return
	}
	calledAt := map[int]genomics.Variant{}
	for _, v := range calls {
		calledAt[v.Pos-1] = v
	}
	for _, m := range p {
		if v, ok := calledAt[m.Pos]; ok && v.Alt == m.Alt {
			r.Recovered++
		}
	}
}

// pins is the registry datasets a source holds pinned.
type pins []string

// pin resolves and pins a dataset by id or name.
func (p *pins) pin(reg *registry.Store, idOrName string) (registry.Dataset, registry.Payload, *APIError) {
	meta, payload, err := reg.Pin(idOrName)
	if err != nil {
		return meta, payload, &APIError{Code: CodeNotFound, Message: fmt.Sprintf(
			"dataset %q is not registered (it may have been evicted); re-upload via POST /api/v2/datasets", idOrName)}
	}
	*p = append(*p, meta.ID)
	return meta, payload, nil
}

// reference pins the named reference genome and returns its sequence.
func (p *pins) reference(reg *registry.Store, name string) (genomics.Sequence, *APIError) {
	meta, payload, apiErr := p.pin(reg, name)
	if apiErr != nil {
		return genomics.Sequence{}, apiErr
	}
	if meta.Family != registry.Reference {
		return genomics.Sequence{}, invalidf("dataset %q is family %s, not a reference genome", name, meta.Family)
	}
	return payload.Ref, nil
}

func (p *pins) release(reg *registry.Store) {
	for _, id := range *p {
		reg.Unpin(id)
	}
	*p = nil
}

// Daemon-generated sources.

// Synthetic-generation bounds: one submission must not be able to ask the
// daemon to materialize an effectively unbounded dataset.
const (
	maxSyntheticSpectra  = 50000
	maxSyntheticProteins = 2000
	maxSyntheticImages   = 64
	maxImageSide         = 1024
	// maxSyntheticGenes bounds the feature table. The Integrate stage
	// counts edges off a sorted index and never lists one, so its memory
	// is linear in genes however dense the planted modules are.
	maxSyntheticGenes = 20000
)

func (s *SyntheticSpec) validate(_ *registry.Store, reference string) *APIError {
	if s.ReferenceLength < 200 || s.Reads < 1 {
		return invalidf("synthetic: reference_length must be >= 200 and reads >= 1")
	}
	if s.ReadLength != nil && *s.ReadLength == 0 {
		return invalidf("synthetic: read_length 0 is invalid; omit the field for the default (%d)",
			DefaultReadLength)
	}
	return noReference(reference)
}

func (*SyntheticSpec) inputType() workflow.DataType { return workflow.FASTQ }
func (*SyntheticSpec) origin() (string, string)     { return SourceSynthetic, "" }
func (*SyntheticSpec) release(*registry.Store)      {}

// materialize generates a seeded reference, plants the SNVs and simulates
// reads over the mutated genome.
func (s *SyntheticSpec) materialize() (*workflow.Dataset, plantedSNVs, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	ref := genomics.GenerateReference(rng, "chr1", s.ReferenceLength)
	mutated, planted := genomics.PlantSNVs(rng, ref, s.SNVs)
	reads, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: s.Reads, Length: s.EffectiveReadLength(), ErrorRate: s.EffectiveErrorRate(),
	})
	if err != nil {
		return nil, nil, err
	}
	return workflow.NewFASTQDataset(ref, reads), planted, nil
}

func (p *ProteomeSpec) validate(_ *registry.Store, reference string) *APIError {
	if p.Proteins < 1 || p.Spectra < 1 {
		return invalidf("proteome: proteins and spectra must be >= 1")
	}
	if p.Proteins > maxSyntheticProteins || p.Spectra > maxSyntheticSpectra {
		return invalidf("proteome: at most %d proteins and %d spectra", maxSyntheticProteins, maxSyntheticSpectra)
	}
	return noReference(reference)
}

func (*ProteomeSpec) inputType() workflow.DataType { return workflow.MGF }
func (*ProteomeSpec) origin() (string, string)     { return SourceSynthetic, "" }
func (*ProteomeSpec) release(*registry.Store)      {}

func (p *ProteomeSpec) materialize() (*workflow.Dataset, plantedSNVs, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	db := proteome.GenerateDatabase(rng, p.Proteins, 3)
	spectra, _, err := proteome.SimulateSpectra(rng, db, proteome.SimConfig{
		Count:      p.Spectra,
		NoisePeaks: p.EffectiveNoisePeaks(),
		// Realistic acquisition defaults; jitter stays inside the
		// search tolerance.
		DropoutRate: 0.1,
		Jitter:      0.1,
	})
	if err != nil {
		return nil, nil, err
	}
	return workflow.NewMGFDataset(db, spectra), nil, nil
}

// validate fills the frame defaults in place, then bounds them.
func (im *ImagingSpec) validate(_ *registry.Store, reference string) *APIError {
	if im.Images < 1 || im.Images > maxSyntheticImages {
		return invalidf("imaging: images must be in [1, %d]", maxSyntheticImages)
	}
	if im.Width == 0 {
		im.Width = 128
	}
	if im.Height == 0 {
		im.Height = 128
	}
	if im.Width < 32 || im.Width > maxImageSide || im.Height < 32 || im.Height > maxImageSide {
		return invalidf("imaging: width and height must be in [32, %d]", maxImageSide)
	}
	if im.CellsPerImage == 0 {
		im.CellsPerImage = 6
	}
	// The generator requires mutually separated cells; bound the count
	// by a conservative packing density so placement always succeeds.
	if maxCells := (im.Width / 32) * (im.Height / 32); im.CellsPerImage < 1 || im.CellsPerImage > maxCells {
		return invalidf("imaging: cells_per_image must be in [1, %d] for %dx%d frames",
			maxCells, im.Width, im.Height)
	}
	return noReference(reference)
}

func (*ImagingSpec) inputType() workflow.DataType { return workflow.TIFF }
func (*ImagingSpec) origin() (string, string)     { return SourceSynthetic, "" }
func (*ImagingSpec) release(*registry.Store)      {}

func (im *ImagingSpec) materialize() (*workflow.Dataset, plantedSNVs, error) {
	rng := rand.New(rand.NewSource(im.Seed))
	frames := make([]imaging.Image, 0, im.Images)
	for i := 0; i < im.Images; i++ {
		frame, _, err := imaging.Generate(rng, fmt.Sprintf("img%d", i), imaging.SimConfig{
			W: im.Width, H: im.Height, Cells: im.CellsPerImage,
		})
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, frame)
	}
	return workflow.NewTIFFDataset(frames), nil, nil
}

func (n *NetworkSpec) validate(_ *registry.Store, reference string) *APIError {
	if n.Genes < 1 || n.Genes > maxSyntheticGenes {
		return invalidf("network: genes must be in [1, %d]", maxSyntheticGenes)
	}
	if n.Modules < 1 || n.Modules > n.Genes {
		return invalidf("network: modules must be in [1, genes]")
	}
	return noReference(reference)
}

func (*NetworkSpec) inputType() workflow.DataType { return workflow.FeatureTable }
func (*NetworkSpec) origin() (string, string)     { return SourceSynthetic, "" }
func (*NetworkSpec) release(*registry.Store)      {}

func (n *NetworkSpec) materialize() (*workflow.Dataset, plantedSNVs, error) {
	ms, _, err := network.SimulateMeasurements(rand.New(rand.NewSource(n.Seed)), n.Genes, n.Modules)
	if err != nil {
		return nil, nil, err
	}
	features := make([]workflow.Feature, len(ms))
	for i, m := range ms {
		features[i] = workflow.Feature{Name: m.Name, Count: 1, Value: m.Value}
	}
	return workflow.NewFeatureDataset(features), nil, nil
}

// Inline records.

// maxInlineBases bounds the inline payload (reference + reads) so one
// submission cannot hold the daemon's memory hostage.
const maxInlineBases = 16 << 20

// inlineInput is an inline sequencing dataset: the submitted records until
// validate converts them to genomics form, plus the pin of the named
// reference genome when one replaces the inline reference.
type inlineInput struct {
	wire   *InlineDataset
	ref    genomics.Sequence
	reads  []genomics.Read
	pinned pins
}

func (in *inlineInput) validate(reg *registry.Store, reference string) *APIError {
	if err := in.normalize(reference != ""); err != nil {
		return invalidf("inline: %v", err)
	}
	if reference == "" {
		return nil
	}
	var apiErr *APIError
	in.ref, apiErr = in.pinned.reference(reg, reference)
	return apiErr
}

// normalize validates the wire records and replaces them with their
// genomics form: bases upper-cased and checked, read IDs and qualities
// defaulted. With namedRef the submission names a registered reference
// genome: the inline reference must then be absent (validate fills in.ref
// from the registry).
func (in *inlineInput) normalize(namedRef bool) error {
	w := in.wire
	if namedRef && w.Reference.Sequence != "" {
		return fmt.Errorf("an inline reference and a named reference are mutually exclusive")
	}
	refSeq := genomics.Upper([]byte(w.Reference.Sequence))
	if !namedRef {
		if len(refSeq) < 16 {
			return fmt.Errorf("reference must be at least 16 bases (the aligner's seed length), got %d", len(refSeq))
		}
		if err := genomics.ValidateBases(refSeq); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	if len(w.Reads) == 0 {
		return fmt.Errorf("at least one read is required")
	}
	name := w.Reference.Name
	if name == "" {
		name = "ref"
	}
	total := len(refSeq)
	reads := make([]genomics.Read, 0, len(w.Reads))
	for i, r := range w.Reads {
		seq := genomics.Upper([]byte(r.Sequence))
		if len(seq) == 0 {
			return fmt.Errorf("read %d: empty sequence", i)
		}
		if err := genomics.ValidateBases(seq); err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		if r.Quality != "" && len(r.Quality) != len(seq) {
			return fmt.Errorf("read %d: quality length %d != sequence length %d",
				i, len(r.Quality), len(seq))
		}
		total += len(seq)
		if total > maxInlineBases {
			return fmt.Errorf("payload exceeds %d bases", maxInlineBases)
		}
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("read%d", i)
		}
		qual := []byte(r.Quality)
		if len(qual) == 0 {
			qual = make([]byte, len(seq))
			for j := range qual {
				qual[j] = 'I' // Phred+33 Q40: "no quality given" means high confidence
			}
		}
		reads = append(reads, genomics.Read{ID: id, Seq: seq, Qual: qual})
	}
	in.wire, in.ref, in.reads = nil, genomics.Sequence{Name: name, Seq: refSeq}, reads
	return nil
}

func (*inlineInput) inputType() workflow.DataType { return workflow.FASTQ }
func (*inlineInput) origin() (string, string)     { return SourceInline, "" }

func (in *inlineInput) materialize() (*workflow.Dataset, plantedSNVs, error) {
	return workflow.NewFASTQDataset(in.ref, in.reads), nil, nil
}

func (in *inlineInput) release(reg *registry.Store) {
	in.ref, in.reads = genomics.Sequence{}, nil
	in.pinned.release(reg)
}

// Registered datasets.

// datasetInput is a registry reference, submitted by id or name (key). Once
// validated the payload slices alias the store's records — the registry
// holds the one copy, however many jobs name the dataset. payload.Ref is the
// effective reference: the dataset's embedded one, possibly overridden by a
// named reference.
type datasetInput struct {
	key     string
	id      string
	family  registry.Family
	payload registry.Payload
	pinned  pins
}

func (d *datasetInput) validate(reg *registry.Store, reference string) *APIError {
	meta, payload, apiErr := d.pinned.pin(reg, d.key)
	if apiErr != nil {
		return apiErr
	}
	if meta.Family == registry.Reference {
		return invalidf("dataset %q is a reference genome; name it via the reference field alongside reads", d.key)
	}
	d.id, d.family, d.payload = meta.ID, meta.Family, payload
	// A named reference genome overrides or supplies a FASTQ dataset's
	// embedded one.
	if reference != "" && d.family != registry.FASTQ {
		return noReference(reference)
	}
	if reference != "" {
		if d.payload.Ref, apiErr = d.pinned.reference(reg, reference); apiErr != nil {
			return apiErr
		}
	}
	if d.family == registry.FASTQ && d.payload.Ref.Len() == 0 {
		return invalidf("fastq dataset %q carries no reference; upload one with a reference part or name a registered reference genome", d.key)
	}
	return nil
}

func (d *datasetInput) inputType() workflow.DataType { return d.family.DataType() }
func (d *datasetInput) origin() (string, string)     { return SourceDataset, d.id }

// materialize aliases the registry's records — no per-job copy.
func (d *datasetInput) materialize() (*workflow.Dataset, plantedSNVs, error) {
	switch d.family {
	case registry.FASTQ:
		return workflow.NewFASTQDataset(d.payload.Ref, d.payload.Reads), nil, nil
	case registry.MGF:
		return workflow.NewMGFDataset(d.payload.PeptideDB, d.payload.Spectra), nil, nil
	case registry.TIFF:
		return workflow.NewTIFFDataset(d.payload.Images), nil, nil
	case registry.FeatureTable:
		return workflow.NewFeatureDataset(d.payload.Features), nil, nil
	}
	return nil, nil, fmt.Errorf("dataset %s has unrunnable family %q", d.id, d.family)
}

func (d *datasetInput) release(reg *registry.Store) {
	d.payload = registry.Payload{}
	d.pinned.release(reg)
}
