package ontology

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

const scanNS = "http://www.semanticweb.org/wxing/ontologies/scan-ontology#"

func tr(s, p, o string) Triple {
	return Triple{NewIRI(scanNS + s), NewIRI(scanNS + p), NewIRI(scanNS + o)}
}

func TestGraphAddHas(t *testing.T) {
	g := NewGraph()
	tt := tr("GATK1", "performance", "good")
	if g.Has(tt) {
		t.Fatal("empty graph has a triple")
	}
	if !g.Add(tt) {
		t.Fatal("first Add returned false")
	}
	if g.Add(tt) {
		t.Fatal("duplicate Add returned true")
	}
	if g.Len() != 1 || !g.Has(tt) {
		t.Fatal("triple missing after Add")
	}
}

// countMatches counts the triples ForEachMatch streams for a pattern.
func countMatches(g *Graph, s, p, o *Term) int {
	n := 0
	g.ForEachMatch(s, p, o, func(Triple) bool {
		n++
		return true
	})
	return n
}

func TestGraphMatchPatterns(t *testing.T) {
	g := NewGraph()
	g.Add(tr("GATK1", "requires", "CPU"))
	g.Add(tr("GATK1", "requires", "RAM"))
	g.Add(tr("GATK2", "requires", "CPU"))
	g.Add(tr("BWA", "produces", "SAM"))

	s := NewIRI(scanNS + "GATK1")
	p := NewIRI(scanNS + "requires")
	o := NewIRI(scanNS + "CPU")

	if got := countMatches(g, &s, nil, nil); got != 2 {
		t.Fatalf("S** match = %d, want 2", got)
	}
	if got := countMatches(g, nil, &p, nil); got != 3 {
		t.Fatalf("*P* match = %d, want 3", got)
	}
	if got := countMatches(g, nil, nil, &o); got != 2 {
		t.Fatalf("**O match = %d, want 2", got)
	}
	if got := countMatches(g, &s, &p, nil); got != 2 {
		t.Fatalf("SP* match = %d, want 2", got)
	}
	if got := countMatches(g, nil, &p, &o); got != 2 {
		t.Fatalf("*PO match = %d, want 2", got)
	}
	if got := countMatches(g, &s, &p, &o); got != 1 {
		t.Fatalf("SPO match = %d, want 1", got)
	}
	if got := countMatches(g, nil, nil, nil); got != 4 {
		t.Fatalf("*** match = %d, want 4", got)
	}
}

func TestGraphForEachEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(tr("s", "p", string(rune('a'+i))))
	}
	count := 0
	g.ForEachMatch(nil, nil, nil, func(Triple) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: visited %d", count)
	}
}

func TestSubjectsSorted(t *testing.T) {
	g := NewGraph()
	g.Add(tr("c", "supports", "app"))
	g.Add(tr("a", "supports", "app"))
	g.Add(tr("b", "supports", "app"))
	got := g.Subjects(NewIRI(scanNS+"supports"), NewIRI(scanNS+"app"))
	if len(got) != 3 {
		t.Fatalf("got %d subjects", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatal("subjects not sorted")
		}
	}
}

func TestObjectSingle(t *testing.T) {
	g := NewGraph()
	s := NewIRI(scanNS + "GATK1")
	p := NewIRI(scanNS + "eTime")
	if _, ok := g.Object(s, p); ok {
		t.Fatal("Object on empty graph returned ok")
	}
	g.Add(Triple{s, p, NewInt(180)})
	v, ok := g.Object(s, p)
	if !ok {
		t.Fatal("Object not found")
	}
	if i, _ := v.AsInt(); i != 180 {
		t.Fatalf("Object = %v", v)
	}
	g.Add(Triple{s, p, NewInt(200)})
	if _, ok := g.Object(s, p); ok {
		t.Fatal("Object with two values returned ok")
	}
}

func TestTermLiterals(t *testing.T) {
	if v, ok := NewInt(42).AsInt(); !ok || v != 42 {
		t.Fatal("AsInt round-trip failed")
	}
	if v, ok := NewFloat(2.5).AsFloat(); !ok || v != 2.5 {
		t.Fatal("AsFloat round-trip failed")
	}
	if v, ok := NewInt(7).AsFloat(); !ok || v != 7 {
		t.Fatal("integer AsFloat failed")
	}
	if v, ok := NewBool(true).AsBool(); !ok || !v {
		t.Fatal("AsBool round-trip failed")
	}
	if _, ok := NewString("x").AsInt(); ok {
		t.Fatal("string AsInt should fail")
	}
	if _, ok := NewIRI("x").AsFloat(); ok {
		t.Fatal("IRI AsFloat should fail")
	}
}

func TestTermCompareNumeric(t *testing.T) {
	if NewInt(2).Compare(NewFloat(10)) >= 0 {
		t.Fatal("2 should sort before 10.0 numerically")
	}
	if NewString("2").Compare(NewString("10")) <= 0 {
		t.Fatal("strings sort lexically")
	}
	if NewIRI("a").Compare(NewString("a")) >= 0 {
		t.Fatal("IRIs sort before literals")
	}
}

func TestTermString(t *testing.T) {
	cases := map[string]Term{
		"<http://x/y>": NewIRI("http://x/y"),
		`"hi"`:         NewString("hi"),
		"42":           NewInt(42),
		"true":         NewBool(true),
		"_:b0":         NewBlank("b0"),
	}
	for want, term := range cases {
		if got := term.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestPrefixExpandCompact(t *testing.T) {
	g := NewGraph()
	g.SetPrefix("scan", scanNS)
	term := g.Expand("scan:GATK1")
	if term.Value != scanNS+"GATK1" {
		t.Fatalf("Expand = %v", term)
	}
	if got := g.Compact(term); got != "scan:GATK1" {
		t.Fatalf("Compact = %q", got)
	}
	// Unknown prefix passes through as IRI.
	raw := g.Expand("urn:x")
	if raw.Value != "urn:x" {
		t.Fatalf("unknown prefix Expand = %v", raw)
	}
	// IRI outside every namespace stays in <> form.
	if got := g.Compact(NewIRI("http://other/ns#z")); got != "<http://other/ns#z>" {
		t.Fatalf("Compact = %q", got)
	}
	// Local names with illegal characters must not compact.
	if got := g.Compact(NewIRI(scanNS + "a b")); got != "<"+scanNS+"a b>" {
		t.Fatalf("Compact = %q", got)
	}
	if names := g.sortedPrefixNames(); len(names) != 1 || names[0] != "scan" {
		t.Fatalf("prefixes = %v", names)
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := NewGraph()
	g.SetPrefix("scan", scanNS)
	g.Add(tr("a", "b", "c"))
	g.Add(Triple{NewIRI(scanNS + "a"), NewIRI(scanNS + "v"), NewInt(5)})
	c := NewGraph()
	for _, tt := range g.Triples() {
		c.Add(tt)
	}
	if !g.Equal(c) {
		t.Fatal("copy not equal")
	}
	c.Add(tr("x", "y", "z"))
	if g.Equal(c) {
		t.Fatal("graphs with different sizes equal")
	}
	g.Add(tr("x", "y", "w"))
	if g.Equal(c) {
		t.Fatal("graphs with same size but different triples equal")
	}
}

// Property: after any sequence of adds, duplicates included, Has/Len agree
// with a reference set, and each index streams exactly the triples of the
// reference that match its pattern.
func TestGraphMatchesReferenceProperty(t *testing.T) {
	f := func(ops []struct{ S, P, O uint8 }) bool {
		g := NewGraph()
		ref := map[Triple]bool{}
		for _, op := range ops {
			tt := Triple{
				NewIRI(string(rune('a' + op.S%5))),
				NewIRI(string(rune('p' + op.P%3))),
				NewInt(int64(op.O % 7)),
			}
			ref[tt] = true
			g.Add(tt)
		}
		if g.Len() != len(ref) {
			return false
		}
		for tt := range ref {
			if !g.Has(tt) {
				return false
			}
			// The SPO, POS and OSP indexes each stream as many triples
			// as the reference holds for the pattern.
			var bySub, byPred, byObj int
			for rt := range ref {
				if rt.S == tt.S {
					bySub++
				}
				if rt.P == tt.P {
					byPred++
				}
				if rt.O == tt.O {
					byObj++
				}
			}
			if countMatches(g, &tt.S, nil, nil) != bySub ||
				countMatches(g, nil, &tt.P, nil) != byPred ||
				countMatches(g, nil, nil, &tt.O) != byObj ||
				countMatches(g, &tt.S, &tt.P, &tt.O) != 1 {
				return false
			}
		}
		return countMatches(g, nil, nil, nil) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGraphMatchPO(b *testing.B) {
	g := NewGraph()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		g.Add(Triple{
			NewIRI(scanNS + "s" + string(rune('a'+r.Intn(26)))),
			NewIRI(scanNS + "p" + string(rune('a'+r.Intn(5)))),
			NewInt(int64(r.Intn(50))),
		})
	}
	p := NewIRI(scanNS + "pa")
	o := NewInt(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ForEachMatch(nil, &p, &o, func(Triple) bool { return true })
	}
}

// Equal reports whether two graphs contain exactly the same triples
// (prefixes are ignored: they are presentation, not content). It is the
// Turtle round-trip tests' oracle.
func (g *Graph) Equal(o *Graph) bool {
	if g.size != o.size {
		return false
	}
	equal := true
	g.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		if !o.Has(t) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// sortedPrefixNames returns the registered prefix names, sorted.
func (g *Graph) sortedPrefixNames() []string {
	out := append([]string(nil), g.order...)
	sort.Strings(out)
	return out
}
