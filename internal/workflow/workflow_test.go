package workflow

import (
	"strings"
	"testing"

	"scan/internal/knowledge"
)

func TestDefaultCatalogue(t *testing.T) {
	r := DefaultCatalogue()
	// The paper: "we have defined over 10 different genome analysis
	// workflows".
	if r.Len() < 11 {
		t.Fatalf("catalogue has %d workflows, want >= 11", r.Len())
	}
	for _, name := range r.Names() {
		w, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// All four Figure 1 families present.
	families := map[string]bool{}
	for _, name := range r.Names() {
		w, _ := r.Get(name)
		families[w.Family] = true
	}
	for _, f := range []string{"genomic", "proteomic", "imaging", "integrative"} {
		if !families[f] {
			t.Errorf("family %q missing from the catalogue", f)
		}
	}
}

func TestVariantDetectionShape(t *testing.T) {
	r := DefaultCatalogue()
	w, err := r.Get("dna-variant-detection")
	if err != nil {
		t.Fatal(err)
	}
	// BWA alignment + the paper's 7-stage GATK pipeline.
	if len(w.Stages) != 8 {
		t.Fatalf("stages = %d, want 8", len(w.Stages))
	}
	if w.Consumes() != FASTQ || w.Produces() != VCF {
		t.Fatalf("types = %s -> %s", w.Consumes(), w.Produces())
	}
	if w.Stages[0].Tool != "BWA" || w.Stages[1].Tool != "GATK" {
		t.Fatalf("tools = %s, %s", w.Stages[0].Tool, w.Stages[1].Tool)
	}
	// The final filtration stage is the nearly-serial one (c=0.02) and is
	// not shardable.
	last := w.Stages[len(w.Stages)-1]
	if last.Parallelizable {
		t.Fatal("VariantFiltration should not be marked parallelizable")
	}
}

func TestValidateCatchesTypeMismatch(t *testing.T) {
	w := Workflow{
		Name: "broken",
		Stages: []Stage{
			{Name: "a", Tool: "x", Consumes: FASTQ, Produces: BAM},
			{Name: "b", Tool: "y", Consumes: VCF, Produces: VCF},
		},
	}
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "consumes") {
		t.Fatalf("err = %v", err)
	}
	if err := (Workflow{Name: "empty"}).Validate(); err != ErrEmptyWorkflow {
		t.Fatalf("err = %v", err)
	}
	if err := (Workflow{Stages: []Stage{{Name: "a", Tool: "t", Consumes: FASTQ, Produces: BAM}}}).Validate(); err == nil {
		t.Fatal("unnamed workflow accepted")
	}
}

func TestRegistryOperations(t *testing.T) {
	r := NewRegistry()
	w := Workflow{
		Name:   "test",
		Family: "genomic",
		Stages: []Stage{{Name: "a", Tool: "t", Consumes: FASTQ, Produces: BAM}},
	}
	if err := r.Register(w); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(w); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("unknown lookup succeeded")
	}
}

func TestExportToKnowledgeBase(t *testing.T) {
	kb := knowledge.New()
	r := DefaultCatalogue()
	if err := r.ExportTo(kb); err != nil {
		t.Fatal(err)
	}
	names, err := kb.Workflows()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != r.Len() {
		t.Fatalf("KB has %d workflows, registry has %d", len(names), r.Len())
	}
	// The linker query works against exported workflows too.
	wfs, err := kb.PipelineForData("MGF")
	if err != nil {
		t.Fatal(err)
	}
	if len(wfs) != 2 {
		t.Fatalf("MGF consumers in KB = %v", wfs)
	}
	// GenomeAnalysis individuals are subclass-visible as Applications.
	res, err := kb.Query(`
PREFIX scan: <` + knowledge.NS + `>
SELECT ?wf ?steps WHERE {
  ?wf a scan:GenomeAnalysis ;
      scan:steps ?steps .
  FILTER (?steps >= 8)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // the three 8-stage variant pipelines
		t.Fatalf("8-stage workflows = %d, want 3", res.Len())
	}
}
