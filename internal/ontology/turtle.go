package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Encode writes the graph in a Turtle subset: @prefix directives followed by
// triples grouped by subject with ';' predicate separators. Output is
// deterministic (sorted) so knowledge bases diff cleanly.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range g.order {
		if _, err := fmt.Fprintf(bw, "@prefix %s: <%s> .\n", p, g.prefixes[p]); err != nil {
			return err
		}
	}
	if len(g.order) > 0 && g.size > 0 {
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	triples := g.Triples()
	for i := 0; i < len(triples); {
		s := triples[i].S
		j := i
		for j < len(triples) && triples[j].S == s {
			j++
		}
		group := triples[i:j]
		if _, err := fmt.Fprintf(bw, "%s ", g.Compact(s)); err != nil {
			return err
		}
		for k, t := range group {
			sep := " ;\n    "
			if k == len(group)-1 {
				sep = " .\n"
			}
			if _, err := fmt.Fprintf(bw, "%s %s%s", g.Compact(t.P), g.encodeObject(t.O), sep); err != nil {
				return err
			}
		}
		i = j
	}
	return bw.Flush()
}

func (g *Graph) encodeObject(t Term) string {
	if t.Kind == IRI {
		return g.Compact(t)
	}
	// Decode types a bare number by its lexical form, so an integral double
	// ("10") must be written "10.0" to come back as the same term.
	if t.Kind == Literal && t.Datatype == XSDDouble {
		if _, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
			return t.Value + ".0"
		}
	}
	return t.String()
}

// Decode parses the Turtle subset produced by Encode (plus ',' object lists
// and full-line '#' comments) into the graph, registering any @prefix
// directives it encounters.
func (g *Graph) Decode(r io.Reader) error {
	toks, err := tokenizeTurtle(r)
	if err != nil {
		return err
	}
	p := &turtleParser{graph: g, toks: toks}
	return p.parse()
}

// turtleToken is one lexical token of the Turtle subset.
type turtleToken struct {
	kind turtleTokenKind
	text string
	line int
}

type turtleTokenKind uint8

const (
	tokAtPrefix turtleTokenKind = iota
	tokIRIRef                   // <...>
	tokQName                    // prefix:local or keyword 'a'
	tokLiteral                  // quoted string
	tokNumber
	tokBoolean
	tokDot
	tokSemicolon
	tokComma
	tokEOF
)

func tokenizeTurtle(r io.Reader) ([]turtleToken, error) {
	br := bufio.NewReader(r)
	var toks []turtleToken
	line := 1
	for {
		ch, _, err := br.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case ch == '\n':
			line++
		case ch == ' ' || ch == '\t' || ch == '\r':
		case ch == '#':
			for {
				c, _, err := br.ReadRune()
				if err == io.EOF || c == '\n' {
					line++
					break
				}
				if err != nil {
					return nil, err
				}
			}
		case ch == '.':
			toks = append(toks, turtleToken{tokDot, ".", line})
		case ch == ';':
			toks = append(toks, turtleToken{tokSemicolon, ";", line})
		case ch == ',':
			toks = append(toks, turtleToken{tokComma, ",", line})
		case ch == '<':
			var sb strings.Builder
			for {
				c, _, err := br.ReadRune()
				if err != nil {
					return nil, fmt.Errorf("ontology: line %d: unterminated IRI", line)
				}
				if c == '>' {
					break
				}
				sb.WriteRune(c)
			}
			toks = append(toks, turtleToken{tokIRIRef, sb.String(), line})
		case ch == '"':
			var sb strings.Builder
			for {
				c, _, err := br.ReadRune()
				if err != nil {
					return nil, fmt.Errorf("ontology: line %d: unterminated string", line)
				}
				if c == '\\' {
					nc, _, err := br.ReadRune()
					if err != nil {
						return nil, fmt.Errorf("ontology: line %d: dangling escape", line)
					}
					switch nc {
					case 'n':
						sb.WriteRune('\n')
					case 't':
						sb.WriteRune('\t')
					case '"', '\\':
						sb.WriteRune(nc)
					default:
						return nil, fmt.Errorf("ontology: line %d: bad escape \\%c", line, nc)
					}
					continue
				}
				if c == '"' {
					break
				}
				sb.WriteRune(c)
			}
			toks = append(toks, turtleToken{tokLiteral, sb.String(), line})
		case ch == '@':
			word := readWord(br, ch)
			if word != "@prefix" {
				return nil, fmt.Errorf("ontology: line %d: unsupported directive %q", line, word)
			}
			toks = append(toks, turtleToken{tokAtPrefix, word, line})
		case ch == '-' || ch == '+' || (ch >= '0' && ch <= '9'):
			word := readWord(br, ch)
			toks = append(toks, turtleToken{tokNumber, word, line})
		default:
			word := readWord(br, ch)
			switch word {
			case "true", "false":
				toks = append(toks, turtleToken{tokBoolean, word, line})
			default:
				toks = append(toks, turtleToken{tokQName, word, line})
			}
		}
	}
	toks = append(toks, turtleToken{tokEOF, "", line})
	return toks, nil
}

// readWord consumes a run of non-delimiter runes starting with first.
// A trailing '.' (statement terminator) is pushed back so "5 ." and "5."
// both parse; interior dots (decimals, IRIs) are kept.
func readWord(br *bufio.Reader, first rune) string {
	var sb strings.Builder
	sb.WriteRune(first)
	for {
		c, _, err := br.ReadRune()
		if err != nil {
			break
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' || c == ',' || c == '"' || c == '<' {
			_ = br.UnreadRune()
			break
		}
		sb.WriteRune(c)
	}
	w := sb.String()
	// A single '.' at the very end of a word is always the statement
	// terminator in this subset (interior dots, as in "3.14" or dotted
	// qname locals, are preserved). The marker is split into a real dot
	// token by the parser, since bufio cannot push back two runes.
	if body := strings.TrimSuffix(w, "."); body != w && body != "" {
		return body + "\x00."
	}
	return w
}

type turtleParser struct {
	graph *Graph
	toks  []turtleToken
	pos   int
}

func (p *turtleParser) peek() turtleToken { return p.toks[p.pos] }

func (p *turtleParser) next() turtleToken {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *turtleParser) errf(t turtleToken, format string, args ...any) error {
	return fmt.Errorf("ontology: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *turtleParser) parse() error {
	p.splitMarkedDots()
	for {
		t := p.peek()
		switch t.kind {
		case tokEOF:
			return nil
		case tokAtPrefix:
			if err := p.parsePrefix(); err != nil {
				return err
			}
		default:
			if err := p.parseStatement(); err != nil {
				return err
			}
		}
	}
}

// splitMarkedDots post-processes tokens whose text carries the "\x00."
// terminator marker emitted by readWord.
func (p *turtleParser) splitMarkedDots() {
	var out []turtleToken
	for _, t := range p.toks {
		if i := strings.Index(t.text, "\x00"); i >= 0 {
			body := t.text[:i]
			if body != "" {
				nt := t
				nt.text = body
				out = append(out, nt)
			}
			out = append(out, turtleToken{tokDot, ".", t.line})
			continue
		}
		out = append(out, t)
	}
	p.toks = out
}

func (p *turtleParser) parsePrefix() error {
	p.next() // @prefix
	name := p.next()
	if name.kind != tokQName || !strings.HasSuffix(name.text, ":") {
		return p.errf(name, "expected prefix name, got %q", name.text)
	}
	iri := p.next()
	if iri.kind != tokIRIRef {
		return p.errf(iri, "expected namespace IRI, got %q", iri.text)
	}
	dot := p.next()
	if dot.kind != tokDot {
		return p.errf(dot, "expected '.' after @prefix")
	}
	p.graph.SetPrefix(strings.TrimSuffix(name.text, ":"), iri.text)
	return nil
}

func (p *turtleParser) parseStatement() error {
	subj, err := p.parseTerm(false)
	if err != nil {
		return err
	}
	for {
		pred, err := p.parseTerm(false)
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseTerm(true)
			if err != nil {
				return err
			}
			p.graph.Add(Triple{subj, pred, obj})
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		sep := p.next()
		switch sep.kind {
		case tokDot:
			return nil
		case tokSemicolon:
			// Turtle allows a trailing ';' before '.'.
			if p.peek().kind == tokDot {
				p.next()
				return nil
			}
			continue
		default:
			return p.errf(sep, "expected ';' or '.', got %q", sep.text)
		}
	}
}

func (p *turtleParser) parseTerm(objectPos bool) (Term, error) {
	t := p.next()
	switch t.kind {
	case tokIRIRef:
		return NewIRI(t.text), nil
	case tokQName:
		if t.text == "a" {
			return NewIRI(RDFType), nil
		}
		if strings.HasPrefix(t.text, "_:") {
			return NewBlank(strings.TrimPrefix(t.text, "_:")), nil
		}
		i := strings.Index(t.text, ":")
		if i < 0 {
			return Term{}, p.errf(t, "expected IRI or QName, got %q", t.text)
		}
		if _, ok := p.graph.Prefix(t.text[:i]); !ok {
			return Term{}, p.errf(t, "unknown prefix %q", t.text[:i])
		}
		return p.graph.Expand(t.text), nil
	case tokLiteral:
		if !objectPos {
			return Term{}, p.errf(t, "literal not allowed in subject/predicate position")
		}
		return NewString(t.text), nil
	case tokNumber:
		if !objectPos {
			return Term{}, p.errf(t, "number not allowed in subject/predicate position")
		}
		if iv, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return NewInt(iv), nil
		}
		fv, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Term{}, p.errf(t, "bad numeric literal %q", t.text)
		}
		return NewFloat(fv), nil
	case tokBoolean:
		if !objectPos {
			return Term{}, p.errf(t, "boolean not allowed in subject/predicate position")
		}
		return NewBool(t.text == "true"), nil
	default:
		return Term{}, p.errf(t, "unexpected token %q", t.text)
	}
}
