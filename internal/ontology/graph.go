package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is an in-memory indexed triple store with set semantics: adding a
// duplicate triple is a no-op. It maintains SPO, POS and OSP indexes so any
// single- or double-wildcard match runs without a full scan.
//
// Graph is not safe for concurrent mutation; the knowledge base wraps it
// with its own lock.
type Graph struct {
	spo      map[Term]map[Term]map[Term]struct{}
	pos      map[Term]map[Term]map[Term]struct{}
	osp      map[Term]map[Term]map[Term]struct{}
	size     int
	prefixes map[string]string // prefix -> namespace IRI
	order    []string          // prefix insertion order for stable encoding
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		spo:      make(map[Term]map[Term]map[Term]struct{}),
		pos:      make(map[Term]map[Term]map[Term]struct{}),
		osp:      make(map[Term]map[Term]map[Term]struct{}),
		prefixes: make(map[string]string),
	}
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return g.size }

// Add inserts the triple, reporting whether it was new.
func (g *Graph) Add(t Triple) bool {
	if !index3(g.spo, t.S, t.P, t.O) {
		return false
	}
	index3(g.pos, t.P, t.O, t.S)
	index3(g.osp, t.O, t.S, t.P)
	g.size++
	return true
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	m1, ok := g.spo[t.S]
	if !ok {
		return false
	}
	m2, ok := m1[t.P]
	if !ok {
		return false
	}
	_, ok = m2[t.O]
	return ok
}

// ForEachMatch streams every triple matching the pattern to fn; fn returns
// false to stop early. It selects the most specific index available.
func (g *Graph) ForEachMatch(s, p, o *Term, fn func(Triple) bool) {
	switch {
	case s != nil:
		m1 := g.spo[*s]
		for pp, m2 := range m1 {
			if p != nil && pp != *p {
				continue
			}
			for oo := range m2 {
				if o != nil && oo != *o {
					continue
				}
				if !fn(Triple{*s, pp, oo}) {
					return
				}
			}
		}
	case p != nil:
		m1 := g.pos[*p]
		for oo, m2 := range m1 {
			if o != nil && oo != *o {
				continue
			}
			for ss := range m2 {
				if !fn(Triple{ss, *p, oo}) {
					return
				}
			}
		}
	case o != nil:
		m1 := g.osp[*o]
		for ss, m2 := range m1 {
			for pp := range m2 {
				if !fn(Triple{ss, pp, *o}) {
					return
				}
			}
		}
	default:
		for ss, m1 := range g.spo {
			for pp, m2 := range m1 {
				for oo := range m2 {
					if !fn(Triple{ss, pp, oo}) {
						return
					}
				}
			}
		}
	}
}

// Object returns the single object of (s, p, *), with ok=false when the
// subject has zero or multiple values for the property.
func (g *Graph) Object(s, p Term) (Term, bool) {
	objs := g.spo[s][p]
	if len(objs) != 1 {
		return Term{}, false
	}
	for o := range objs {
		return o, true
	}
	return Term{}, false
}

// Subjects returns the subjects of all (*, p, o) triples.
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	for s := range g.pos[p][o] {
		out = append(out, s)
	}
	sortTerms(out)
	return out
}

// SubjectsOfType returns all subjects with rdf:type class.
func (g *Graph) SubjectsOfType(class Term) []Term {
	return g.Subjects(NewIRI(RDFType), class)
}

// Triples returns every triple in deterministic (sorted) order. Intended
// for serialisation and tests, not hot paths.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.size)
	g.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].S.Compare(out[j].S); c != 0 {
			return c < 0
		}
		if c := out[i].P.Compare(out[j].P); c != 0 {
			return c < 0
		}
		return out[i].O.Compare(out[j].O) < 0
	})
	return out
}

// SetPrefix registers a namespace prefix for QName expansion and encoding.
func (g *Graph) SetPrefix(prefix, ns string) {
	if _, exists := g.prefixes[prefix]; !exists {
		g.order = append(g.order, prefix)
	}
	g.prefixes[prefix] = ns
}

// Prefix resolves a registered prefix to its namespace IRI.
func (g *Graph) Prefix(prefix string) (string, bool) {
	ns, ok := g.prefixes[prefix]
	return ns, ok
}

// Prefixes returns registered prefixes in insertion order.
func (g *Graph) Prefixes() []string {
	return append([]string(nil), g.order...)
}

// Expand turns a QName like "scan:GATK1" into an IRI term using the
// registered prefixes. Strings without a registered prefix are returned as
// IRIs verbatim.
func (g *Graph) Expand(qname string) Term {
	if i := strings.Index(qname, ":"); i >= 0 {
		if ns, ok := g.prefixes[qname[:i]]; ok {
			return NewIRI(ns + qname[i+1:])
		}
	}
	return NewIRI(qname)
}

// Compact renders an IRI as a QName when a registered namespace matches,
// otherwise as <iri>.
func (g *Graph) Compact(t Term) string {
	if t.Kind != IRI {
		return t.String()
	}
	best, bestNS := "", ""
	for _, p := range g.order {
		ns := g.prefixes[p]
		if strings.HasPrefix(t.Value, ns) && len(ns) > len(bestNS) {
			local := t.Value[len(ns):]
			if validLocal(local) {
				best, bestNS = p, ns
			}
		}
	}
	if bestNS != "" {
		return best + ":" + t.Value[len(bestNS):]
	}
	return t.String()
}

// validLocal reports whether s can appear as the local part of a QName in
// our Turtle subset.
func validLocal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r == '_' || r == '-' || r == '.' ||
			('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')) {
			return false
		}
	}
	return true
}

func index3(m map[Term]map[Term]map[Term]struct{}, a, b, c Term) bool {
	m2, ok := m[a]
	if !ok {
		m2 = make(map[Term]map[Term]struct{})
		m[a] = m2
	}
	m3, ok := m2[b]
	if !ok {
		m3 = make(map[Term]struct{})
		m2[b] = m3
	}
	if _, exists := m3[c]; exists {
		return false
	}
	m3[c] = struct{}{}
	return true
}

func sortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// DescribeIndividual returns a human-readable dump of every property of s,
// sorted by property then value, for knowledge.Base.Describe.
func (g *Graph) DescribeIndividual(s Term) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", g.Compact(s))
	type pair struct{ p, o Term }
	var props []pair
	g.ForEachMatch(&s, nil, nil, func(t Triple) bool {
		props = append(props, pair{t.P, t.O})
		return true
	})
	sort.Slice(props, func(i, j int) bool {
		if c := props[i].p.Compare(props[j].p); c != 0 {
			return c < 0
		}
		return props[i].o.Compare(props[j].o) < 0
	})
	for _, pr := range props {
		fmt.Fprintf(&b, "  %s %s\n", g.Compact(pr.p), g.Compact(pr.o))
	}
	return b.String()
}
