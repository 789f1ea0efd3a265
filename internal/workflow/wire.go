package workflow

// The fleet wire codec: one deterministic, length-prefixed binary format
// for the two payload kinds that cross the coordinator/worker boundary
// (internal/fleet). Stage contexts ship as parts, one dataset per payload
// field, each content-addressed by SHA-256 of these bytes, so workers
// cache them; shard outputs ship per task, raw behind a JSON result
// envelope.
//
// Format: counts and lengths are uvarints, ints are zigzag varints, bytes
// are themselves, floats are their 8 IEEE-754 bits, little-endian (so −0.0 and NaN payloads
// survive), strings and byte slices are a length then the bytes, and a
// slice is a count then its elements. A zero count decodes as nil, so nil
// and empty encode alike. Fields follow in declaration order. The bytes
// depend only on the value, which is what makes "equal datasets encode to
// equal bytes" hold for the content-hash data plane, and what the
// distributed-vs-local equivalence tests compare.
//
// One function per type codes it in both directions (the wire's mode
// picks which), so the encoder and decoder cannot drift apart. Encoding
// runs it twice: a counting pass, then a write into a buffer of exactly
// that size. Decoding checks every count against the bytes left before it
// allocates, rejects bytes after the payload, and aliases byte-slice
// fields into the input through 3-index slices instead of copying them.
//
// A StreamShard's Data opens with a one-byte tag naming its type; every
// stage payload that can appear there needs an entry in payloads. A type
// without one fails the first remote dispatch loudly, never silently.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
)

var errShort = errors.New("payload ends mid-record")

// EncodeDataset serializes a dataset for the fleet data plane. Equal
// datasets produce equal bytes, so SHA-256 of the encoding is a stable
// content address.
func EncodeDataset(d *Dataset) ([]byte, error) {
	if d == nil {
		return nil, ErrNilDataset
	}
	return encode(func(w *wire) { w.dataset(d) })
}

// DecodeDataset reverses EncodeDataset. The dataset's byte slices alias b.
func DecodeDataset(b []byte) (*Dataset, error) {
	d := new(Dataset)
	if err := decode(b, func(w *wire) { w.dataset(d) }); err != nil {
		return nil, fmt.Errorf("workflow: decode dataset: %w", err)
	}
	return d, nil
}

// ContextPart is one non-empty payload field of a stage input, alone in a
// dataset: a stage context crosses the fleet as the EncodeDataset bytes of
// each of its parts, and its Type beside them.
type ContextPart struct {
	// Key is the field's identity: the type, first element and length of
	// its slice (the Network's pointer; the reference's name too, and the
	// alignments' Mapped). Payloads are never mutated, so parts with equal
	// keys encode alike. A Key holds its storage, so no other slice takes
	// the identity while the Key lives.
	Key  any
	Data *Dataset
}

// sliceKey is a non-empty slice's identity.
type sliceKey[T any] struct {
	first *T
	n     int
}

func keyOf[T any](s []T) any {
	if len(s) == 0 {
		return nil
	}
	return sliceKey[T]{&s[0], len(s)}
}

// contextFields are the payload fields a stage context splits into, in
// Dataset order: each one's key (nil when it is empty) and its copy from
// one dataset into another. Type is in none of them.
var contextFields = [...]struct {
	key  func(*Dataset) any
	move func(dst, src *Dataset)
}{
	{func(d *Dataset) any {
		if d.Reference.Name == "" && len(d.Reference.Seq) == 0 {
			return nil
		}
		return struct {
			seq  any
			name string
		}{keyOf(d.Reference.Seq), d.Reference.Name}
	}, func(dst, src *Dataset) { dst.Reference = src.Reference }},
	{func(d *Dataset) any { return keyOf(d.PeptideDB.Peptides) }, func(dst, src *Dataset) { dst.PeptideDB = src.PeptideDB }},
	{func(d *Dataset) any { return keyOf(d.Reads) }, func(dst, src *Dataset) { dst.Reads = src.Reads }},
	{func(d *Dataset) any {
		if len(d.Alignments) == 0 && d.Mapped == 0 {
			return nil
		}
		return struct {
			alns   any
			mapped int
		}{keyOf(d.Alignments), d.Mapped}
	}, func(dst, src *Dataset) { dst.Alignments, dst.Mapped = src.Alignments, src.Mapped }},
	{func(d *Dataset) any { return keyOf(d.Variants) }, func(dst, src *Dataset) { dst.Variants = src.Variants }},
	{func(d *Dataset) any { return keyOf(d.Features) }, func(dst, src *Dataset) { dst.Features = src.Features }},
	{func(d *Dataset) any { return keyOf(d.Spectra) }, func(dst, src *Dataset) { dst.Spectra = src.Spectra }},
	{func(d *Dataset) any { return keyOf(d.Proteins) }, func(dst, src *Dataset) { dst.Proteins = src.Proteins }},
	{func(d *Dataset) any { return keyOf(d.Images) }, func(dst, src *Dataset) { dst.Images = src.Images }},
	{func(d *Dataset) any {
		if d.Net == nil {
			return nil
		}
		return d.Net
	}, func(dst, src *Dataset) { dst.Net = src.Net }},
}

// MaxContextParts is the number of payload fields: the most parts a stage
// context has.
const MaxContextParts = len(contextFields)

// ContextParts splits d's payload into its parts, in field order.
func ContextParts(d *Dataset) []ContextPart {
	var parts []ContextPart
	for _, f := range contextFields {
		if k := f.key(d); k != nil {
			p := new(Dataset)
			f.move(p, d)
			parts = append(parts, ContextPart{Key: k, Data: p})
		}
	}
	return parts
}

// JoinContext rebuilds a stage input of type typ from its decoded parts.
// Each part must hold exactly one payload field and no type, and no two
// parts the same field.
func JoinContext(typ DataType, parts []*Dataset) (*Dataset, error) {
	d := &Dataset{Type: typ}
	var set [MaxContextParts]bool
	for i, p := range parts {
		fields := 0
		for j, f := range contextFields {
			if f.key(p) == nil {
				continue
			}
			if set[j] {
				return nil, fmt.Errorf("workflow: context part %d sets a field an earlier part set", i)
			}
			set[j] = true
			fields++
			f.move(d, p)
		}
		if fields != 1 || p.Type != "" {
			return nil, fmt.Errorf("workflow: context part %d holds %d fields and type %q, want one field and no type", i, fields, p.Type)
		}
	}
	return d, nil
}

// EncodeShard serializes one stream shard: a worker's task output.
func EncodeShard(s StreamShard) ([]byte, error) {
	b, err := encode(func(w *wire) { w.shard(&s) })
	if err != nil {
		return nil, fmt.Errorf("workflow: encode shard: %w", err)
	}
	return b, nil
}

// DecodeShard reverses EncodeShard; b must hold exactly one shard. The
// shard's byte slices alias b.
func DecodeShard(b []byte) (StreamShard, error) {
	var s StreamShard
	if err := decode(b, func(w *wire) { w.shard(&s) }); err != nil {
		return StreamShard{}, fmt.Errorf("workflow: decode shard: %w", err)
	}
	return s, nil
}

func encode(code func(*wire)) ([]byte, error) {
	var w wire
	code(&w)
	if w.err != nil {
		return nil, w.err
	}
	w = wire{b: make([]byte, w.off)}
	code(&w)
	return w.b, nil
}

func decode(b []byte, code func(*wire)) error {
	w := wire{b: b, dec: true}
	code(&w)
	if w.err == nil && w.off != len(b) {
		w.err = fmt.Errorf("%d bytes after the payload", len(b)-w.off)
	}
	return w.err
}

// wire is one pass of the codec. Encoding, b is nil while counting and
// then the exactly-sized output; decoding, b is the input. off is the
// bytes counted, written or read so far. The first decode error sticks
// and exhausts the input, so later reads fail fast and allocate nothing.
type wire struct {
	b   []byte
	off int
	dec bool
	err error
}

func (w *wire) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.off = len(w.b)
}

func (w *wire) uvarint(v *uint64) {
	switch {
	case w.dec:
		x, n := binary.Uvarint(w.b[w.off:])
		if n <= 0 {
			w.fail(errShort)
			return
		}
		*v, w.off = x, w.off+n
	case w.b == nil:
		w.off += (bits.Len64(*v|1) + 6) / 7
	default:
		w.off += binary.PutUvarint(w.b[w.off:], *v)
	}
}

func (w *wire) int(v *int) {
	x := uint64(*v)<<1 ^ uint64(*v>>63)
	w.uvarint(&x)
	if w.dec {
		*v = int(x>>1) ^ -int(x&1)
	}
}

// int32 codes v as an int; decoding, a value int32 cannot hold is an
// error.
func (w *wire) int32(v *int32) {
	x := int(*v)
	w.int(&x)
	if w.dec {
		if int(int32(x)) != x {
			w.fail(fmt.Errorf("%d overflows int32", x))
			return
		}
		*v = int32(x)
	}
}

func (w *wire) float(v *float64) {
	switch {
	case w.dec:
		if len(w.b)-w.off < 8 {
			w.fail(errShort)
			return
		}
		*v = math.Float64frombits(binary.LittleEndian.Uint64(w.b[w.off:]))
	case w.b != nil:
		binary.LittleEndian.PutUint64(w.b[w.off:], math.Float64bits(*v))
	}
	w.off += 8
}

func (w *wire) octet(v *byte) {
	switch {
	case w.dec:
		if w.off == len(w.b) {
			w.fail(errShort)
			return
		}
		*v = w.b[w.off]
	case w.b != nil:
		w.b[w.off] = *v
	}
	w.off++
}

// count codes n, the length of something whose every unit takes at least
// unit bytes; decoding, a count the bytes left cannot hold is an error.
func (w *wire) count(n *int, unit int) {
	x := uint64(*n)
	w.uvarint(&x)
	if w.dec {
		if left := len(w.b) - w.off; x > uint64(left/unit) {
			w.fail(fmt.Errorf("count %d exceeds the %d bytes left", x, left))
			x = 0
		}
		*n = int(x)
	}
}

// span codes a length-prefixed byte run and returns its position in b.
func (w *wire) span(n *int) (int, int) {
	w.count(n, 1)
	lo := w.off
	w.off += *n
	return lo, w.off
}

func (w *wire) bytes(p *[]byte) {
	n := len(*p)
	lo, hi := w.span(&n)
	switch {
	case w.dec && n > 0:
		*p = w.b[lo:hi:hi]
	case w.dec:
		*p = nil
	case w.b != nil:
		copy(w.b[lo:hi], *p)
	}
}

func (w *wire) str(s *string) {
	n := len(*s)
	lo, hi := w.span(&n)
	switch {
	case w.dec:
		*s = string(w.b[lo:hi])
	case w.b != nil:
		copy(w.b[lo:hi], *s)
	}
}

// present codes whether an optional value follows, as one 0 or 1 byte.
func (w *wire) present(ok bool) bool {
	x := uint64(0)
	if ok {
		x = 1
	}
	w.uvarint(&x)
	if x > 1 {
		w.fail(fmt.Errorf("presence byte %d", x))
	}
	return x == 1
}

// slice codes s as a count and its elements; decoding, each element
// takes at least the encoded size of T's zero value.
func slice[T any](w *wire, s *[]T, code func(*wire, *T)) {
	n := len(*s)
	if w.dec {
		var zero T
		unit := wire{}
		code(&unit, &zero)
		w.count(&n, unit.off)
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	} else {
		w.count(&n, 1)
	}
	for i := range *s {
		code(w, &(*s)[i])
	}
}

func (w *wire) dataset(d *Dataset) {
	w.str((*string)(&d.Type))
	w.str(&d.Reference.Name)
	w.bytes(&d.Reference.Seq)
	slice(w, &d.PeptideDB.Peptides, func(w *wire, p *proteome.Peptide) {
		w.str(&p.Protein)
		w.str(&p.Name)
		slice(w, &p.Masses, (*wire).float)
	})
	slice(w, &d.Reads, (*wire).read)
	slice(w, &d.Alignments, (*wire).alignment)
	w.int(&d.Mapped)
	slice(w, &d.Variants, (*wire).variant)
	slice(w, &d.Features, (*wire).feature)
	slice(w, &d.Spectra, (*wire).spectrum)
	slice(w, &d.Proteins, func(w *wire, p *proteome.ProteinQuant) {
		w.str(&p.Protein)
		w.int(&p.Peptides)
		w.int(&p.Spectra)
		w.float(&p.Abundance)
	})
	slice(w, &d.Images, func(w *wire, im *imaging.Image) {
		w.str(&im.ID)
		w.int(&im.W)
		w.int(&im.H)
		slice(w, &im.Pix, (*wire).float)
	})
	if w.present(d.Net != nil) {
		if w.dec {
			d.Net = new(network.Network)
		}
		w.network(d.Net)
	}
}

func (w *wire) network(n *network.Network) {
	slice(w, &n.Nodes, func(w *wire, nd *network.Node) {
		w.str(&nd.Name)
		w.float(&nd.Value)
	})
	w.int(&n.Edges)
	slice(w, &n.Modules, func(w *wire, m *[]int) { slice(w, m, (*wire).int) })
}

func (w *wire) read(r *genomics.Read) {
	w.str(&r.ID)
	w.bytes(&r.Seq)
	w.bytes(&r.Qual)
}

func (w *wire) alignment(a *genomics.Alignment) {
	w.int(&a.Pos)
	w.int32(&a.Read)
	w.int32(&a.Len)
	w.int(&a.Flag)
	w.int(&a.MapQ)
	w.int(&a.NM)
}

func (w *wire) variant(v *genomics.Variant) {
	w.int(&v.Pos)
	w.octet(&v.Ref)
	w.octet(&v.Alt)
	w.float(&v.Qual)
}

func (w *wire) feature(f *Feature) {
	w.str(&f.Name)
	w.int(&f.Start)
	w.int(&f.End)
	w.int(&f.Count)
	w.float(&f.Value)
}

func (w *wire) region(r *imaging.Region) {
	w.int(&r.Area)
	w.float(&r.CX)
	w.float(&r.CY)
	w.float(&r.Mean)
	w.int(&r.MinX)
	w.int(&r.MinY)
	w.int(&r.MaxX)
	w.int(&r.MaxY)
}

func (w *wire) spectrum(s *proteome.Spectrum) {
	w.str(&s.ID)
	slice(w, &s.Peaks, (*wire).float)
}

func (w *wire) shard(s *StreamShard) {
	w.int(&s.Records)
	if w.dec {
		var tag uint64
		w.uvarint(&tag)
		if tag >= uint64(len(payloads)) {
			w.fail(fmt.Errorf("unknown shard payload tag %d", tag))
			return
		}
		payloads[tag](w, &s.Data, tag)
		return
	}
	for tag, code := range payloads {
		if code(w, &s.Data, uint64(tag)) {
			return
		}
	}
	w.fail(fmt.Errorf("shard payload %T has no wire tag", s.Data))
}

// payloads codes every StreamShard.Data type that crosses the fleet wire.
// An entry's index is its tag, which opens the payload; the indices are
// the wire format, so append, never reorder. Encoding, an entry reports
// whether the payload is its type, and codes it only then.
var payloads = []func(w *wire, v *any, tag uint64) bool{
	func(w *wire, v *any, tag uint64) bool { // no payload: a nil Data
		if *v == nil && !w.dec {
			w.uvarint(&tag)
		}
		return *v == nil
	},
	// Tags 1–5 coded shard inputs ([]Read, []Alignment, []Spectrum, a
	// tile, a node range); workers re-Split the stage's context instead.
	retired, retired, retired, retired, retired,
	// Shard outputs, one per streaming family.
	payload(func(w *wire, v *AlignedShard) {
		slice(w, &v.Alns, (*wire).alignment)
		w.int(&v.Mapped)
	}),
	payload(func(w *wire, v *[]genomics.Variant) { slice(w, v, (*wire).variant) }),
	retired, // a lone Feature
	payload(func(w *wire, v *[]proteome.Match) {
		slice(w, v, func(w *wire, m *proteome.Match) {
			w.str(&m.Spectrum)
			w.int(&m.Peptide)
			w.float(&m.Score)
		})
	}),
	retired, // a tile's region list
	retired, // an Integrate shard's edge list
	payload(func(w *wire, v *[]Feature) { slice(w, v, (*wire).feature) }),
	payload((*wire).int), // an Integrate shard's edge count
	payload(func(w *wire, v *[][]imaging.Region) { // a Profile shard's region list per frame
		slice(w, v, func(w *wire, rs *[]imaging.Region) { slice(w, rs, (*wire).region) })
	}),
}

// retired holds the tag of a payload type nothing sends: it never matches
// on encode, and decoding it is an error, so a coordinator re-queues the
// shard as it does for any corrupt payload.
func retired(w *wire, _ *any, tag uint64) bool {
	if w.dec {
		w.fail(fmt.Errorf("retired shard payload tag %d", tag))
	}
	return false
}

// payload makes the payloads entry for an interface-held value of type T.
func payload[T any](code func(*wire, *T)) func(*wire, *any, uint64) bool {
	return func(w *wire, v *any, tag uint64) bool {
		var x T
		if !w.dec {
			var ok bool
			if x, ok = (*v).(T); !ok {
				return false
			}
			w.uvarint(&tag)
		}
		code(w, &x)
		if w.dec {
			*v = x
		}
		return true
	}
}
