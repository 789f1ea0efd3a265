// This file holds the catalogue: typed workflow definitions, the registry,
// and their knowledge-base export. See doc.go for the package overview and
// the stage contract and its local = remote determinism guarantee.
package workflow

import (
	"errors"
	"fmt"

	"scan/internal/knowledge"
)

// DataType is a biological data format flowing between stages.
type DataType string

// The data types of the paper's Figure 1 data-flow diagram.
const (
	FASTQ        DataType = "FASTQ"        // raw NGS reads (Illumina HiSeq)
	BAM          DataType = "BAM"          // aligned reads (in memory in this repo)
	VCF          DataType = "VCF"          // variant calls
	MGF          DataType = "MGF"          // mass-spectrometry peak lists
	ProteinTable DataType = "ProteinTable" // quantified proteins
	TIFF         DataType = "TIFF"         // microscopy images
	FeatureTable DataType = "FeatureTable" // per-cell image features
	Network      DataType = "Network"      // integrative interaction network
)

// Stage is one tool invocation in a workflow.
type Stage struct {
	Name     string
	Tool     string // the executing application (BWA, GATK, MaxQuant, ...)
	Consumes DataType
	Produces DataType
	// Parallelizable marks stages the Data Broker may shard
	// (coarse-grained data parallelism).
	Parallelizable bool
}

// Workflow is a typed chain of stages.
type Workflow struct {
	Name        string
	Description string
	Family      string // "genomic", "proteomic", "imaging", "integrative"
	Stages      []Stage
}

// Errors returned by validation and registry operations.
var (
	ErrEmptyWorkflow = errors.New("workflow: no stages")
	ErrNotFound      = errors.New("workflow: not found")
	ErrDuplicate     = errors.New("workflow: already registered")
)

// Validate checks the stage chain is non-empty, named, and type-compatible
// (stage i's product feeds stage i+1).
func (w Workflow) Validate() error {
	if w.Name == "" {
		return errors.New("workflow: missing name")
	}
	if len(w.Stages) == 0 {
		return ErrEmptyWorkflow
	}
	for i, s := range w.Stages {
		if s.Name == "" || s.Tool == "" {
			return fmt.Errorf("workflow %s: stage %d missing name or tool", w.Name, i)
		}
		if s.Consumes == "" || s.Produces == "" {
			return fmt.Errorf("workflow %s: stage %q missing data types", w.Name, s.Name)
		}
		if i > 0 && w.Stages[i-1].Produces != s.Consumes {
			return fmt.Errorf("workflow %s: stage %q consumes %s but %q produces %s",
				w.Name, s.Name, s.Consumes, w.Stages[i-1].Name, w.Stages[i-1].Produces)
		}
	}
	return nil
}

// Consumes returns the workflow's input data type.
func (w Workflow) Consumes() DataType { return w.Stages[0].Consumes }

// Produces returns the workflow's final output data type.
func (w Workflow) Produces() DataType { return w.Stages[len(w.Stages)-1].Produces }

// Registry holds named workflows.
type Registry struct {
	byName map[string]Workflow
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Workflow)}
}

// Register validates and adds a workflow.
func (r *Registry) Register(w Workflow) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if _, dup := r.byName[w.Name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, w.Name)
	}
	r.byName[w.Name] = w
	r.order = append(r.order, w.Name)
	return nil
}

// Get returns a workflow by name.
func (r *Registry) Get(name string) (Workflow, error) {
	w, ok := r.byName[name]
	if !ok {
		return Workflow{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return w, nil
}

// Names returns registered workflow names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Len returns the number of registered workflows.
func (r *Registry) Len() int { return len(r.byName) }

// ExportTo records every workflow in the knowledge base as a
// GenomeAnalysis individual with stage and data-type triples, queryable by
// the Data Broker's SPARQL layer.
func (r *Registry) ExportTo(kb *knowledge.Base) error {
	for _, name := range r.order {
		w := r.byName[name]
		if err := kb.AddWorkflowIndividual(name, w.Family, len(w.Stages),
			string(w.Consumes()), string(w.Produces())); err != nil {
			return err
		}
	}
	return nil
}

// gatk7 builds the paper's 7-stage GATK variant pipeline as workflow
// stages (identical software requirements, distinct resource needs).
func gatk7() []Stage {
	names := []string{
		"MarkDuplicates", "RealignerTargetCreator", "IndelRealigner",
		"BaseRecalibrator", "PrintReads", "UnifiedGenotyper", "VariantFiltration",
	}
	stages := make([]Stage, 0, len(names)+1)
	for i, n := range names {
		produces := BAM
		if i >= len(names)-2 {
			produces = VCF // the calling and filtration stages emit VCF
		}
		consumes := BAM
		if i == len(names)-1 {
			consumes = VCF
		}
		stages = append(stages, Stage{
			Name: n, Tool: "GATK", Consumes: consumes, Produces: produces,
			Parallelizable: i != len(names)-1,
		})
	}
	return stages
}

// DefaultCatalogue returns the paper's workflow catalogue: the analyses of
// Figure 1 plus the workflow instances Section III-A names, 11 in total.
func DefaultCatalogue() *Registry {
	r := NewRegistry()
	add := func(w Workflow) {
		// The catalogue is static; a registration failure is programmer error.
		if err := r.Register(w); err != nil {
			panic(err)
		}
	}
	align := Stage{Name: "Align", Tool: "BWA", Consumes: FASTQ, Produces: BAM, Parallelizable: true}

	add(Workflow{
		Name: "dna-variant-detection", Family: "genomic",
		Description: "Gene alignment and variation detection (Figure 1, NGS path)",
		Stages:      append([]Stage{align}, gatk7()...),
	})
	add(Workflow{
		Name: "exome-variant-detection", Family: "genomic",
		Description: "Exome-targeted variant detection",
		Stages:      append([]Stage{align}, gatk7()...),
	})
	add(Workflow{
		Name: "wgs-variant-detection", Family: "genomic",
		Description: "Whole-genome sequencing variant detection (100GB+ inputs)",
		Stages:      append([]Stage{align}, gatk7()...),
	})
	add(Workflow{
		Name: "somatic-mutation-detection", Family: "genomic",
		Description: "Tumour/normal somatic calling (MuTect-style)",
		Stages: []Stage{align,
			{Name: "SomaticCall", Tool: "MuTect", Consumes: BAM, Produces: VCF, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "mirna-fusion-detection", Family: "genomic",
		Description: "miRNA fusion detection workflow (named in Section III-A)",
		Stages: []Stage{align,
			{Name: "FusionScan", Tool: "GATK", Consumes: BAM, Produces: VCF, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "rna-expression", Family: "genomic",
		Description: "RNA-seq expression profiling",
		Stages: []Stage{align,
			{Name: "Quantify", Tool: "GATK", Consumes: BAM, Produces: FeatureTable, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "variants-to-vcf", Family: "genomic",
		Description: "Gather stage merging per-shard call sets (paper's VariantsToVCF)",
		Stages: []Stage{
			{Name: "MergeVCF", Tool: "GATK", Consumes: VCF, Produces: VCF},
		},
	})
	add(Workflow{
		Name: "proteome-maxquant", Family: "proteomic",
		Description: "Peptide identification and protein quantification (Figure 1, MS path)",
		Stages: []Stage{
			{Name: "Quantify", Tool: "MaxQuant", Consumes: MGF, Produces: ProteinTable, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "proteome-gpm", Family: "proteomic",
		Description: "Global Proteome Machine search",
		Stages: []Stage{
			{Name: "Search", Tool: "GPM", Consumes: MGF, Produces: ProteinTable, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "cell-imaging", Family: "imaging",
		Description: "Cell image phenotype quantification (Figure 1, microscopy path)",
		Stages: []Stage{
			{Name: "Profile", Tool: "CellProfiler", Consumes: TIFF, Produces: FeatureTable, Parallelizable: true},
		},
	})
	add(Workflow{
		Name: "integrative-network", Family: "integrative",
		Description: "Omics integration into interaction networks (Figure 1, Cytoscape)",
		Stages: []Stage{
			// Parallelizable: edge construction scatters over node-range
			// partitions of the pair space.
			{Name: "Integrate", Tool: "Cytoscape", Consumes: FeatureTable, Produces: Network, Parallelizable: true},
		},
	})
	return r
}
