// Package ontology implements the RDF-style triple store underneath SCAN's
// application knowledge base. The paper stores application profiles as OWL
// named individuals and queries them with SPARQL; this package provides the
// graph model (terms, triples, indexed graphs, namespace prefixes) and a
// Turtle-subset codec for persisting knowledge bases.
package ontology

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three RDF term categories.
type TermKind uint8

// Term kinds.
const (
	IRI TermKind = iota
	Literal
	Blank
)

// Datatype IRIs for typed literals (XML Schema, as in RDF 1.1).
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Well-known RDF/RDFS/OWL vocabulary IRIs used by the knowledge base.
const (
	RDFType            = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSLabel          = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSComment        = "http://www.w3.org/2000/01/rdf-schema#comment"
	RDFSSubClassOf     = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	OWLClass           = "http://www.w3.org/2002/07/owl#Class"
	OWLNamedIndividual = "http://www.w3.org/2002/07/owl#NamedIndividual"
	OWLObjectProperty  = "http://www.w3.org/2002/07/owl#ObjectProperty"
	OWLDataProperty    = "http://www.w3.org/2002/07/owl#DatatypeProperty"
)

// Term is an RDF term: an IRI, a typed literal, or a blank node. Terms are
// comparable values, so they can key Go maps directly.
type Term struct {
	Kind     TermKind
	Value    string // IRI string, blank node label, or literal lexical form
	Datatype string // literal datatype IRI; empty for IRIs and blanks
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewString returns an xsd:string literal.
func NewString(s string) Term { return Term{Kind: Literal, Value: s, Datatype: XSDString} }

// NewInt returns an xsd:integer literal.
func NewInt(i int64) Term {
	return Term{Kind: Literal, Value: strconv.FormatInt(i, 10), Datatype: XSDInteger}
}

// NewFloat returns an xsd:double literal.
func NewFloat(f float64) Term {
	return Term{Kind: Literal, Value: strconv.FormatFloat(f, 'g', -1, 64), Datatype: XSDDouble}
}

// NewBool returns an xsd:boolean literal.
func NewBool(b bool) Term {
	return Term{Kind: Literal, Value: strconv.FormatBool(b), Datatype: XSDBoolean}
}

// IsNumeric reports whether the term is an integer or double literal.
func (t Term) IsNumeric() bool {
	return t.Kind == Literal && (t.Datatype == XSDInteger || t.Datatype == XSDDouble)
}

// AsInt returns the literal as an int64. ok is false for non-integer terms.
func (t Term) AsInt() (v int64, ok bool) {
	if t.Kind != Literal || t.Datatype != XSDInteger {
		return 0, false
	}
	v, err := strconv.ParseInt(t.Value, 10, 64)
	return v, err == nil
}

// AsFloat returns the literal as a float64. Integer literals convert
// losslessly; ok is false for non-numeric terms.
func (t Term) AsFloat() (v float64, ok bool) {
	if !t.IsNumeric() {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value, 64)
	return v, err == nil
}

// AsBool returns the literal as a bool. ok is false for non-boolean terms.
func (t Term) AsBool() (v bool, ok bool) {
	if t.Kind != Literal || t.Datatype != XSDBoolean {
		return false, false
	}
	v, err := strconv.ParseBool(t.Value)
	return v, err == nil
}

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		switch t.Datatype {
		case XSDInteger, XSDDouble, XSDBoolean:
			return t.Value
		default:
			return strconv.Quote(t.Value)
		}
	}
}

// Compare orders terms: IRIs < literals < blanks; within literals, numeric
// literals order by value, others lexically. It is the ordering used by
// SPARQL ORDER BY.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		return int(t.Kind) - int(o.Kind)
	}
	if t.Kind == Literal && t.IsNumeric() && o.IsNumeric() {
		a, _ := t.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(t.Value, o.Value)
}

// Triple is a single (subject, predicate, object) statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples-like syntax.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}
