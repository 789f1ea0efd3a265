package ontology

// This file provides thin OWL-flavoured helpers over the raw triple API:
// declaring classes and named individuals the way the paper's knowledge base
// does (owl:NamedIndividual instances of scan-ontology classes with data
// properties such as inputFileSize, CPU, RAM, eTime).

// DeclareClass asserts class rdf:type owl:Class.
func (g *Graph) DeclareClass(class Term) {
	g.Add(Triple{class, NewIRI(RDFType), NewIRI(OWLClass)})
}

// DeclareSubClass asserts sub rdfs:subClassOf super (declaring both classes).
func (g *Graph) DeclareSubClass(sub, super Term) {
	g.DeclareClass(sub)
	g.DeclareClass(super)
	g.Add(Triple{sub, NewIRI(RDFSSubClassOf), super})
}

// DeclareObjectProperty asserts p rdf:type owl:ObjectProperty.
func (g *Graph) DeclareObjectProperty(p Term) {
	g.Add(Triple{p, NewIRI(RDFType), NewIRI(OWLObjectProperty)})
}

// DeclareDataProperty asserts p rdf:type owl:DatatypeProperty.
func (g *Graph) DeclareDataProperty(p Term) {
	g.Add(Triple{p, NewIRI(RDFType), NewIRI(OWLDataProperty)})
}

// AddIndividual declares iri as an owl:NamedIndividual of the given class
// and attaches the property/value pairs. It mirrors the paper's RDF/OWL
// snippets, e.g. the GATK1 individual with inputFileSize 10, steps 1,
// RAM 4, eTime 180, CPU 8.
func (g *Graph) AddIndividual(iri, class Term, props map[Term]Term) {
	g.Add(Triple{iri, NewIRI(RDFType), NewIRI(OWLNamedIndividual)})
	g.Add(Triple{iri, NewIRI(RDFType), class})
	for p, o := range props {
		g.Add(Triple{iri, p, o})
	}
}
