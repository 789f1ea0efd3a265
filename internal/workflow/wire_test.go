package workflow

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
)

// retiredPayload holds a wire tag whose payload type nothing sends: it
// names the type the tag once coded.
type retiredPayload struct{ was any }

// shardPayloads holds one value of every StreamShard.Data type that crosses
// the fleet wire, indexed by its wire tag.
var shardPayloads = []any{
	nil,
	retiredPayload{[]genomics.Read(nil)},
	retiredPayload{[]genomics.Alignment(nil)},
	retiredPayload{[]proteome.Spectrum(nil)},
	retiredPayload{struct {
		Img  int
		Tile imaging.Tile
	}{}},
	retiredPayload{recordRange{}},
	AlignedShard{},
	[]genomics.Variant(nil),
	retiredPayload{Feature{}},
	[]proteome.Match(nil),
	retiredPayload{[]imaging.Region(nil)},
	retiredPayload{[]struct {
		A, B   int
		Weight float64
	}(nil)},
	[]Feature(nil),
	0,
	[][]imaging.Region(nil),
}

// filler sets every field reachable from a value: strings, byte slices
// and slices get 0–3 elements (a zero count stays nil, as the wire decodes
// it), ints span their whole range, pointers are mostly present, and
// floats come from float. A field of a kind it does not know fails the
// test, so a new payload field cannot go unexercised.
type filler struct {
	t     testing.TB
	r     *rand.Rand
	float func(*rand.Rand) float64
}

func (f filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		b := make([]byte, f.r.Intn(6))
		f.r.Read(b)
		v.SetString(string(b))
	case reflect.Uint8:
		v.SetUint(uint64(f.r.Intn(256)))
	case reflect.Int:
		v.SetInt(int64(f.r.Uint64()) >> f.r.Intn(64))
	case reflect.Int32:
		v.SetInt(int64(int32(f.r.Uint32()) >> f.r.Intn(32)))
	case reflect.Float64:
		v.SetFloat(f.float(f.r))
	case reflect.Slice:
		if n := f.r.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := range n {
				f.fill(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f.fill(v.Field(i))
		}
	case reflect.Pointer:
		if f.r.Intn(4) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	default:
		f.t.Fatalf("filler: unhandled kind %s (%s)", v.Kind(), v.Type())
	}
}

// finiteFloat draws random float bits, NaN excluded so values compare
// with reflect.DeepEqual.
func finiteFloat(r *rand.Rand) float64 {
	for {
		if x := math.Float64frombits(r.Uint64()); !math.IsNaN(x) {
			return x
		}
	}
}

// dataset fills a dataset.
func (f filler) dataset() *Dataset {
	d := new(Dataset)
	f.fill(reflect.ValueOf(d).Elem())
	return d
}

func (f filler) shard(tag int) StreamShard {
	s := StreamShard{Records: f.r.Intn(1 << 20)}
	if p := shardPayloads[tag]; p != nil {
		v := reflect.New(reflect.TypeOf(p)).Elem()
		f.fill(v)
		s.Data = v.Interface()
	}
	return s
}

// floatBits appends the bits of every float reachable from v, in order.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := range v.Len() {
				out = floatBits(v.Index(i), out)
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			out = floatBits(v.Elem(), out)
		}
	}
	return out
}

func hasNaN(v any) bool {
	for _, b := range floatBits(reflect.ValueOf(v), nil) {
		if math.IsNaN(math.Float64frombits(b)) {
			return true
		}
	}
	return false
}

// reencode checks that v, encoded and decoded, is reflect.DeepEqual to v
// (or, when v holds a NaN, which DeepEqual never equates, has equal float
// bits) and encodes to the same bytes again. It returns v's encoding.
func reencode[T any](t testing.TB, v T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) []byte {
	t.Helper()
	b, err := enc(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := dec(b)
	if err != nil {
		t.Fatalf("decode of a fresh encoding: %v", err)
	}
	if hasNaN(v) {
		want, have := floatBits(reflect.ValueOf(v), nil), floatBits(reflect.ValueOf(got), nil)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("float bits changed in the round trip:\n want %x\n have %x", want, have)
		}
	} else if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip changed the value:\n want %#v\n have %#v", v, got)
	}
	again, err := enc(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("re-encoding is not byte-identical:\n first %x\n again %x", b, again)
	}
	return b
}

// TestWireRoundTrip: random datasets with every field of all four families
// set, and random shards of every payload type, survive encode → decode
// unchanged and re-encode to identical bytes.
func TestWireRoundTrip(t *testing.T) {
	for seed := range int64(300) {
		f := filler{t: t, r: rand.New(rand.NewSource(seed)), float: finiteFloat}
		reencode(t, f.dataset(), EncodeDataset, DecodeDataset)
		for _, tag := range liveTags() {
			reencode(t, f.shard(tag), EncodeShard, DecodeShard)
		}
	}
	reencode(t, &Dataset{}, EncodeDataset, DecodeDataset)
}

// liveTags lists the tags of shardPayloads that are not retired.
func liveTags() []int {
	var tags []int
	for tag, p := range shardPayloads {
		if _, ok := p.(retiredPayload); !ok {
			tags = append(tags, tag)
		}
	}
	return tags
}

// TestWireTagsArePayloadIndices pins each payload type's tag to its index
// in shardPayloads, so the list above covers every tag the codec knows. A
// retired tag's type no longer encodes, and the tag no longer decodes,
// even before the body its type once had (an empty slice, here).
func TestWireTagsArePayloadIndices(t *testing.T) {
	for tag, p := range shardPayloads {
		if r, ok := p.(retiredPayload); ok {
			if _, err := EncodeShard(StreamShard{Data: r.was}); err == nil {
				t.Fatalf("%T, retired with tag %d, encoded", r.was, tag)
			}
			if _, err := DecodeShard([]byte{0, byte(tag), 0}); err == nil {
				t.Fatalf("retired tag %d decoded", tag)
			}
			continue
		}
		b, err := EncodeShard(StreamShard{Data: p})
		if err != nil {
			t.Fatal(err)
		}
		if b[1] != byte(tag) {
			t.Fatalf("%T encodes with tag %d, want %d", p, b[1], tag)
		}
	}
	if _, err := EncodeShard(StreamShard{Data: int64(42)}); err == nil {
		t.Fatal("a payload type without a tag encoded")
	}
	if _, err := DecodeShard([]byte{0, byte(len(shardPayloads))}); err == nil {
		t.Fatalf("tag %d (one past the last payload type) decoded", len(shardPayloads))
	}
}

// TestWireFloatsBitExact: −0.0, NaNs with payloads, infinities and
// subnormals keep their exact bits in every float field.
func TestWireFloatsBitExact(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff00000deadbeef),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64,
		-1.5,
	}
	pick := func(r *rand.Rand) float64 { return special[r.Intn(len(special))] }
	for seed := range int64(50) {
		f := filler{t: t, r: rand.New(rand.NewSource(seed)), float: pick}
		reencode(t, f.dataset(), EncodeDataset, DecodeDataset)
		for _, tag := range liveTags() {
			reencode(t, f.shard(tag), EncodeShard, DecodeShard)
		}
	}
	negZero := []Feature{{Name: "g", Value: math.Copysign(0, -1)}}
	b, err := EncodeShard(StreamShard{Data: negZero})
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeShard(b)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Data.([]Feature)[0].Value; !math.Signbit(v) {
		t.Fatalf("−0.0 decoded as %v", v)
	}
}

func goldenDataset() *Dataset {
	return &Dataset{
		Type:      FASTQ,
		Reference: genomics.Sequence{Name: "chr1", Seq: []byte("ACGT")},
		Reads:     []genomics.Read{{ID: "r1", Seq: []byte("AC"), Qual: []byte("I#")}},
		Alignments: []genomics.Alignment{
			{Pos: 2, Len: 2, Flag: genomics.FlagReverseStrand, MapQ: 60, NM: 1},
		},
		Mapped:   -2,
		Variants: []genomics.Variant{{Pos: 3, Ref: 'G', Alt: 'T', Qual: 0.5}},
		Net: &network.Network{
			Edges:   1,
			Modules: [][]int{{0, 1}},
		},
	}
}

// goldenHex is goldenDataset's encoding. A change here is a wire format
// change: every worker must be upgraded with its coordinator.
const goldenHex = "" +
	"054641535451" + // Type "FASTQ"
	"0463687231" + "0441434754" + // Reference "chr1", "ACGT"
	"00" + // PeptideDB.Peptides
	"01" + "027231" + "024143" + "024923" + // Reads: 1 × {"r1", "AC", "I#"}
	"01" + "04" + "00" + "04" + "20" + "78" + "02" + // Alignments: 1 × {2, read 0, 2, 0x10, 60, 1}
	"03" + // Mapped −2
	"01" + "06" + "47" + "54" + "000000000000e03f" + // Variants: 1 × {3, 'G', 'T', 0.5}
	"00" + "00" + "00" + "00" + // Features, Spectra, Proteins, Images
	"01" + "00" + // Net present; Nodes
	"02" + // Edges 1
	"01" + "02" + "00" + "02" // Modules: 1 × [0, 1]

// TestWireGoldenBytes pins the format for one small dataset.
func TestWireGoldenBytes(t *testing.T) {
	b := reencode(t, goldenDataset(), EncodeDataset, DecodeDataset)
	if got := hex.EncodeToString(b); got != goldenHex {
		t.Fatalf("encoding drifted:\n got  %s\n want %s", got, goldenHex)
	}
}

// TestContextPartsRoundTrip: a dataset split into context parts, each
// encoded and decoded alone, joins back to the dataset's own encoding. A
// part's key is the same for the same slice and differs for a copy of it.
func TestContextPartsRoundTrip(t *testing.T) {
	for seed := range int64(200) {
		d := filler{t: t, r: rand.New(rand.NewSource(seed)), float: finiteFloat}.dataset()
		parts := ContextParts(d)
		if len(parts) > MaxContextParts {
			t.Fatalf("seed %d: %d parts, more than the %d fields", seed, len(parts), MaxContextParts)
		}
		decoded := make([]*Dataset, len(parts))
		for i, p := range parts {
			var err error
			if decoded[i], err = DecodeDataset(encodeOf(t, p.Data)); err != nil {
				t.Fatal(err)
			}
		}
		joined, err := JoinContext(d.Type, decoded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(encodeOf(t, joined), encodeOf(t, d)) {
			t.Fatalf("seed %d: joined parts encode differently from the dataset", seed)
		}
		for i, p := range ContextParts(d) {
			if p.Key != parts[i].Key {
				t.Fatalf("seed %d: part %d's key changed between two splits", seed, i)
			}
		}
	}
	d := goldenDataset()
	same := ContextParts(d)
	d.Reads = slices.Clone(d.Reads)
	if moved := ContextParts(d); moved[1].Key == same[1].Key || moved[0].Key != same[0].Key {
		t.Fatal("a copied slice kept its key, or an untouched one lost it")
	}
}

// TestJoinContextRejectsBadParts: a part with two fields, none, or a
// type, and two parts with one field, fail the join.
func TestJoinContextRejectsBadParts(t *testing.T) {
	g := goldenDataset()
	reads := &Dataset{Reads: g.Reads}
	for name, parts := range map[string][]*Dataset{
		"two fields":       {{Reads: g.Reads, Variants: g.Variants}},
		"no field":         {{}},
		"typed":            {{Type: FASTQ, Reads: g.Reads}},
		"same field twice": {reads, {Reads: slices.Clone(g.Reads)}},
		"mapped apart":     {{Mapped: 3}, {Alignments: g.Alignments}},
	} {
		if _, err := JoinContext(FASTQ, parts); err == nil {
			t.Fatalf("%s: joined", name)
		}
	}
}

func encodeOf(t testing.TB, d *Dataset) []byte {
	t.Helper()
	b, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireRejectsHostileInput: a huge count, a count past the bytes left,
// truncation at every byte, trailing bytes, an unknown tag and a bad
// presence byte each return an error, without a panic or a large
// allocation.
func TestWireRejectsHostileInput(t *testing.T) {
	valid, err := EncodeDataset(goldenDataset())
	if err != nil {
		t.Fatal(err)
	}
	validShard, err := EncodeShard(filler{t: t, r: rand.New(rand.NewSource(1)), float: finiteFloat}.shard(6))
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.AppendUvarint(nil, 1<<60)
	badNet, err := EncodeDataset(&Dataset{}) // ends with Net's presence byte
	if err != nil {
		t.Fatal(err)
	}
	badNet[len(badNet)-1] = 2
	decodeDataset := func(b []byte) error { _, err := DecodeDataset(b); return err }
	decodeShard := func(b []byte) error { _, err := DecodeShard(b); return err }
	type hostile struct {
		name   string
		decode func([]byte) error
		in     []byte
	}
	cases := []hostile{
		{"dataset count 2^60 in ten bytes", decodeDataset, append(bytes.Clone(huge), 0)},
		{"shard count 2^60", decodeShard, append([]byte{0, 7}, huge...)},
		{"count past the bytes left", decodeShard, append([]byte{0, 7, 0xa0, 0x8d, 0x06}, make([]byte, 40)...)},
		{"retired tag", decodeShard, []byte{0, 1, 0}},
		{"varint overflow", decodeShard, bytes.Repeat([]byte{0xff}, 11)},
		{"trailing dataset byte", decodeDataset, append(bytes.Clone(valid), 0)},
		{"trailing shard byte", decodeShard, append(bytes.Clone(validShard), 0)},
		{"unknown tag", decodeShard, []byte{0, 0xff, 0x01}},
		{"presence byte 2", decodeDataset, badNet},
		{"empty", decodeDataset, nil},
	}
	for i := range valid {
		cases = append(cases, hostile{"truncated dataset", decodeDataset, valid[:i]})
	}
	for i := range validShard {
		cases = append(cases, hostile{"truncated shard", decodeShard, validShard[:i]})
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s (%x): decoded without error", tc.name, tc.in)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes before failing", tc.name, grew)
		}
	}
}

func FuzzDecodeDataset(f *testing.F) {
	golden, err := EncodeDataset(goldenDataset())
	if err != nil {
		f.Fatal(err)
	}
	random, err := EncodeDataset(filler{t: f, r: rand.New(rand.NewSource(7)), float: finiteFloat}.dataset())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(random)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	// Context parts: one field each, and a typed part JoinContext refuses.
	for _, p := range ContextParts(goldenDataset()) {
		b, err := EncodeDataset(p.Data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	typed, err := EncodeDataset(&Dataset{Type: BAM, Alignments: goldenDataset().Alignments})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(typed)
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDataset(b)
		if err == nil {
			reencode(t, d, EncodeDataset, DecodeDataset)
		}
	})
}

// FuzzJoinContext decodes a list of length-prefixed parts, as a worker
// does a task's context: a list JoinContext accepts splits back into the
// same parts, in field order, whatever order they came in.
func FuzzJoinContext(f *testing.F) {
	var golden []byte
	for _, p := range slices.Backward(ContextParts(goldenDataset())) {
		b := encodeOf(f, p.Data)
		golden = append(binary.AppendUvarint(golden, uint64(len(b))), b...)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var parts []*Dataset
		var want [][]byte
		for len(b) > 0 && len(parts) <= MaxContextParts {
			n, k := binary.Uvarint(b)
			if k <= 0 || n > uint64(len(b)-k) {
				return
			}
			d, err := DecodeDataset(b[k : k+int(n)])
			if err != nil {
				return
			}
			parts, want = append(parts, d), append(want, encodeOf(t, d))
			b = b[k+int(n):]
		}
		joined, err := JoinContext(BAM, parts)
		if err != nil {
			return
		}
		var got [][]byte
		for _, p := range ContextParts(joined) {
			got = append(got, encodeOf(t, p.Data))
		}
		slices.SortFunc(want, bytes.Compare)
		slices.SortFunc(got, bytes.Compare)
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("%d parts joined and split into %d different ones", len(want), len(got))
		}
	})
}

func FuzzDecodeShard(f *testing.F) {
	fl := filler{t: f, r: rand.New(rand.NewSource(7)), float: finiteFloat}
	for tag, p := range shardPayloads {
		if _, ok := p.(retiredPayload); ok {
			f.Add([]byte{0, byte(tag), 0})
			continue
		}
		b, err := EncodeShard(fl.shard(tag))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeShard(b)
		if err == nil {
			reencode(t, s, EncodeShard, DecodeShard)
		}
	})
}

// The codec's benchmarks run on the benchmark's genomic input size —
// 30 000 × 100 bp reads over a 100 kb reference — as the FASTQ context the
// align stage ships, the BAM context the calling stages ship, and one
// align shard result of half the alignments.
var wireBench struct {
	once       sync.Once
	fastq, bam *Dataset
	shard      StreamShard
}

func wireBenchInputs(b *testing.B) {
	wireBench.once.Do(func() {
		res, err := testEngine(b, 2).RunByName(context.Background(),
			"dna-variant-detection", synthDataset(b, 100_000, 30_000, 1), RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		out := res.Output
		wireBench.fastq = synthDataset(b, 100_000, 30_000, 1)
		wireBench.bam = &Dataset{Type: BAM, Reference: out.Reference, Reads: out.Reads,
			Alignments: out.Alignments, Mapped: out.Mapped}
		half := out.Alignments[:len(out.Alignments)/2]
		wireBench.shard = StreamShard{Records: len(half), Data: AlignedShard{Alns: half, Mapped: len(half)}}
	})
	if wireBench.bam == nil {
		b.Fatal("benchmark inputs failed to build")
	}
}

func benchDatasets(b *testing.B, run func(b *testing.B, d *Dataset)) {
	wireBenchInputs(b)
	b.Run("fastq", func(b *testing.B) { run(b, wireBench.fastq) })
	b.Run("bam", func(b *testing.B) { run(b, wireBench.bam) })
}

func BenchmarkEncodeDataset(b *testing.B) {
	benchDatasets(b, func(b *testing.B, d *Dataset) {
		b.ReportAllocs()
		for range b.N {
			enc, err := EncodeDataset(d)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(enc)))
		}
	})
}

func BenchmarkDecodeDataset(b *testing.B) {
	benchDatasets(b, func(b *testing.B, d *Dataset) {
		enc, err := EncodeDataset(d)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := DecodeDataset(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeShard(b *testing.B) {
	wireBenchInputs(b)
	b.ReportAllocs()
	for range b.N {
		enc, err := EncodeShard(wireBench.shard)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
	}
}

func BenchmarkDecodeShard(b *testing.B) {
	wireBenchInputs(b)
	enc, err := EncodeShard(wireBench.shard)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := DecodeShard(enc); err != nil {
			b.Fatal(err)
		}
	}
}
