package ontology

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func buildSampleGraph() *Graph {
	g := NewGraph()
	g.SetPrefix("scan", scanNS)
	g.SetPrefix("owl", "http://www.w3.org/2002/07/owl#")
	g.AddIndividual(NewIRI(scanNS+"GATK1"), NewIRI(scanNS+"Application"), map[Term]Term{
		NewIRI(scanNS + "inputFileSize"): NewInt(10),
		NewIRI(scanNS + "steps"):         NewInt(1),
		NewIRI(scanNS + "RAM"):           NewInt(4),
		NewIRI(scanNS + "eTime"):         NewInt(180),
		NewIRI(scanNS + "CPU"):           NewInt(8),
		NewIRI(scanNS + "performance"):   NewString("good"),
		NewIRI(scanNS + "speedup"):       NewFloat(3.11),
		NewIRI(scanNS + "shardSize"):     NewFloat(10), // integral double: must not come back an integer
		NewIRI(scanNS + "multithreaded"): NewBool(true),
	})
	return g
}

func TestTurtleRoundTrip(t *testing.T) {
	g := buildSampleGraph()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if err := g2.Decode(&buf); err != nil {
		t.Fatalf("decode: %v\n---\n%s", err, buf.String())
	}
	if !g.Equal(g2) {
		t.Fatalf("round trip lost triples:\noriginal:\n%v\ndecoded:\n%v", g.Triples(), g2.Triples())
	}
	if _, ok := g2.Prefix("scan"); !ok {
		t.Fatal("prefix not preserved")
	}
}

func TestTurtleDeterministicEncoding(t *testing.T) {
	g := buildSampleGraph()
	var a, b bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding not deterministic")
	}
}

func TestTurtleDecodeHandwritten(t *testing.T) {
	src := `
@prefix scan: <` + scanNS + `> .
# The paper's GATK2 individual.
scan:GATK2 a scan:Application ;
    scan:CPU 8 ;
    scan:steps 1 ;
    scan:RAM 4 ;
    scan:eTime 200 ;
    scan:ratio 3.11 ;
    scan:active true ;
    scan:inputFileSize 5 .
scan:GATK2 scan:label "variant caller" .
`
	g := NewGraph()
	if err := g.Decode(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	s := NewIRI(scanNS + "GATK2")
	if !g.Has(Triple{s, NewIRI(RDFType), NewIRI(scanNS + "Application")}) {
		t.Fatal("'a' keyword not expanded to rdf:type")
	}
	if v, ok := g.Object(s, NewIRI(scanNS+"eTime")); !ok {
		t.Fatal("eTime missing")
	} else if i, _ := v.AsInt(); i != 200 {
		t.Fatalf("eTime = %v", v)
	}
	if v, _ := g.Object(s, NewIRI(scanNS+"ratio")); v.Datatype != XSDDouble {
		t.Fatalf("ratio datatype = %q", v.Datatype)
	}
	if v, _ := g.Object(s, NewIRI(scanNS+"active")); v.Datatype != XSDBoolean {
		t.Fatalf("active datatype = %q", v.Datatype)
	}
	if v, _ := g.Object(s, NewIRI(scanNS+"label")); v.Value != "variant caller" {
		t.Fatalf("label = %v", v)
	}
	if g.Len() != 9 {
		t.Fatalf("Len = %d, want 9", g.Len())
	}
}

func TestTurtleDecodeObjectLists(t *testing.T) {
	src := `@prefix s: <urn:s#> .
s:app s:supports s:a, s:b, s:c .`
	g := NewGraph()
	if err := g.Decode(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	app, supports := NewIRI("urn:s#app"), NewIRI("urn:s#supports")
	if got := countMatches(g, &app, &supports, nil); got != 3 {
		t.Fatalf("object list produced %d triples, want 3", got)
	}
}

func TestTurtleDecodeEscapes(t *testing.T) {
	src := `@prefix s: <urn:s#> .
s:x s:note "line1\nline2 \"quoted\" tab\there" .`
	g := NewGraph()
	if err := g.Decode(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	v, ok := g.Object(NewIRI("urn:s#x"), NewIRI("urn:s#note"))
	if !ok {
		t.Fatal("missing literal")
	}
	want := "line1\nline2 \"quoted\" tab\there"
	if v.Value != want {
		t.Fatalf("literal = %q, want %q", v.Value, want)
	}
}

func TestTurtleDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown prefix", `x:y x:p 1 .`},
		{"unterminated IRI", `<urn:x s p o .`},
		{"unterminated string", `@prefix s: <urn:s#> .` + "\n" + `s:a s:b "oops .`},
		{"literal subject", `@prefix s: <urn:s#> .` + "\n" + `"lit" s:p 1 .`},
		{"missing dot in prefix", `@prefix s: <urn:s#>`},
		{"bad directive", `@base <urn:x> .`},
		{"bad escape", `@prefix s: <urn:s#> .` + "\n" + `s:a s:b "x\q" .`},
	}
	for _, c := range cases {
		g := NewGraph()
		if err := g.Decode(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// Property: any graph built from a restricted random alphabet round-trips
// through Encode/Decode unchanged.
func TestTurtleRoundTripProperty(t *testing.T) {
	f := func(items []struct {
		S, P uint8
		Kind uint8
		IntV int32
		StrV string
	}) bool {
		g := NewGraph()
		g.SetPrefix("s", "urn:test#")
		for _, it := range items {
			s := NewIRI("urn:test#s" + string(rune('a'+it.S%6)))
			p := NewIRI("urn:test#p" + string(rune('a'+it.P%4)))
			var o Term
			switch it.Kind % 4 {
			case 0:
				o = NewInt(int64(it.IntV))
			case 1:
				o = NewFloat(float64(it.IntV) / 8)
			case 2:
				o = NewBool(it.IntV%2 == 0)
			default:
				// Restrict strings to printable ASCII our escaper handles.
				clean := strings.Map(func(r rune) rune {
					if r >= ' ' && r < 127 {
						return r
					}
					return '_'
				}, it.StrV)
				o = NewString(clean)
			}
			g.Add(Triple{s, p, o})
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			return false
		}
		g2 := NewGraph()
		if err := g2.Decode(&buf); err != nil {
			return false
		}
		return g.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeIndividual(t *testing.T) {
	g := buildSampleGraph()
	desc := g.DescribeIndividual(NewIRI(scanNS + "GATK1"))
	if !strings.Contains(desc, "scan:GATK1") || !strings.Contains(desc, "scan:eTime 180") {
		t.Fatalf("DescribeIndividual output unexpected:\n%s", desc)
	}
}
