package genomics

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// SAM flag bits used by the toolkit.
const (
	FlagUnmapped      = 0x4
	FlagReverseStrand = 0x10
)

// RefInfo names one reference sequence in a SAM/SBAM header.
type RefInfo struct {
	Name   string
	Length int
}

// Header is the subset of the SAM header the toolkit uses: the format
// version, sort order, and reference dictionary.
type Header struct {
	Version   string // @HD VN:
	SortOrder string // @HD SO: ("unsorted", "coordinate")
	Refs      []RefInfo
}

// Alignment is one SAM record (the 11 mandatory fields).
type Alignment struct {
	QName string
	Flag  int
	RName string // "*" when unmapped
	Pos   int    // 1-based leftmost position; 0 when unmapped
	MapQ  int
	CIGAR string // "*" when unmapped
	RNext string
	PNext int
	TLen  int
	Seq   []byte
	Qual  []byte
	// NM is the edit distance tag (NM:i:n); -1 when absent.
	NM int
}

// Unmapped reports whether the record has the unmapped flag set.
func (a Alignment) Unmapped() bool { return a.Flag&FlagUnmapped != 0 }

// End returns the 1-based inclusive end position covered on the reference,
// assuming a pure-match CIGAR (the toolkit's aligner emits only «nM»).
func (a Alignment) End() int {
	if a.Unmapped() {
		return 0
	}
	return a.Pos + len(a.Seq) - 1
}

// NewHeader returns an unsorted header over the given references.
func NewHeader(refs ...RefInfo) Header {
	return Header{Version: "1.6", SortOrder: "unsorted", Refs: refs}
}

// WriteSAM writes a header and records in SAM text format.
func WriteSAM(w io.Writer, h Header, alns []Alignment) error {
	bw := bufio.NewWriter(w)
	if err := writeSAMHeader(bw, h); err != nil {
		return err
	}
	for _, a := range alns {
		if err := writeSAMRecord(bw, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeSAMHeader(bw *bufio.Writer, h Header) error {
	version := h.Version
	if version == "" {
		version = "1.6"
	}
	so := h.SortOrder
	if so == "" {
		so = "unsorted"
	}
	if _, err := fmt.Fprintf(bw, "@HD\tVN:%s\tSO:%s\n", version, so); err != nil {
		return err
	}
	for _, r := range h.Refs {
		if _, err := fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length); err != nil {
			return err
		}
	}
	return nil
}

func writeSAMRecord(bw *bufio.Writer, a Alignment) error {
	seq := string(a.Seq)
	if seq == "" {
		seq = "*"
	}
	qual := string(a.Qual)
	if qual == "" {
		qual = "*"
	}
	rnext := a.RNext
	if rnext == "" {
		rnext = "*"
	}
	_, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s",
		a.QName, a.Flag, orStar(a.RName), a.Pos, a.MapQ, orStar(a.CIGAR),
		rnext, a.PNext, a.TLen, seq, qual)
	if err != nil {
		return err
	}
	if a.NM >= 0 {
		if _, err := fmt.Fprintf(bw, "\tNM:i:%d", a.NM); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

func orStar(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

// ReadSAM parses SAM text, returning the header and all records.
func ReadSAM(r io.Reader) (Header, []Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var h Header
	var alns []Alignment
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "@") {
			if err := parseHeaderLine(&h, text); err != nil {
				return h, nil, fmt.Errorf("genomics: line %d: %w", line, err)
			}
			continue
		}
		a, err := parseSAMRecord(text)
		if err != nil {
			return h, nil, fmt.Errorf("genomics: line %d: %w", line, err)
		}
		alns = append(alns, a)
	}
	return h, alns, sc.Err()
}

func parseHeaderLine(h *Header, text string) error {
	fields := strings.Split(text, "\t")
	switch fields[0] {
	case "@HD":
		for _, f := range fields[1:] {
			switch {
			case strings.HasPrefix(f, "VN:"):
				h.Version = f[3:]
			case strings.HasPrefix(f, "SO:"):
				h.SortOrder = f[3:]
			}
		}
	case "@SQ":
		var ref RefInfo
		for _, f := range fields[1:] {
			switch {
			case strings.HasPrefix(f, "SN:"):
				ref.Name = f[3:]
			case strings.HasPrefix(f, "LN:"):
				n, err := strconv.Atoi(f[3:])
				if err != nil {
					return fmt.Errorf("bad @SQ LN %q", f[3:])
				}
				ref.Length = n
			}
		}
		if ref.Name == "" {
			return fmt.Errorf("@SQ without SN")
		}
		h.Refs = append(h.Refs, ref)
	default:
		// @RG, @PG, @CO lines are tolerated and dropped.
	}
	return nil
}

func parseSAMRecord(text string) (Alignment, error) {
	f := strings.Split(text, "\t")
	if len(f) < 11 {
		return Alignment{}, fmt.Errorf("SAM record has %d fields, need 11", len(f))
	}
	flag, err := strconv.Atoi(f[1])
	if err != nil {
		return Alignment{}, fmt.Errorf("bad FLAG %q", f[1])
	}
	pos, err := strconv.Atoi(f[3])
	if err != nil {
		return Alignment{}, fmt.Errorf("bad POS %q", f[3])
	}
	mapq, err := strconv.Atoi(f[4])
	if err != nil {
		return Alignment{}, fmt.Errorf("bad MAPQ %q", f[4])
	}
	pnext, err := strconv.Atoi(f[7])
	if err != nil {
		return Alignment{}, fmt.Errorf("bad PNEXT %q", f[7])
	}
	tlen, err := strconv.Atoi(f[8])
	if err != nil {
		return Alignment{}, fmt.Errorf("bad TLEN %q", f[8])
	}
	a := Alignment{
		QName: f[0], Flag: flag, RName: starEmpty(f[2]), Pos: pos, MapQ: mapq,
		CIGAR: starEmpty(f[5]), RNext: starEmpty(f[6]), PNext: pnext, TLen: tlen,
		NM: -1,
	}
	if f[9] != "*" {
		a.Seq = []byte(f[9])
	}
	if f[10] != "*" {
		a.Qual = []byte(f[10])
	}
	for _, tag := range f[11:] {
		if strings.HasPrefix(tag, "NM:i:") {
			if n, err := strconv.Atoi(tag[5:]); err == nil {
				a.NM = n
			}
		}
	}
	return a, nil
}

func starEmpty(s string) string {
	if s == "*" {
		return ""
	}
	return s
}

// compareAlignments orders records by (reference, position, name) — SAM
// "coordinate" sort order — with unmapped records last.
func compareAlignments(a, b *Alignment) int {
	if au, bu := a.Unmapped(), b.Unmapped(); au != bu {
		if au {
			return 1
		}
		return -1
	}
	if a.RName != b.RName {
		return strings.Compare(a.RName, b.RName)
	}
	if a.Pos != b.Pos {
		return cmp.Compare(a.Pos, b.Pos)
	}
	return strings.Compare(a.QName, b.QName)
}

// SortAlignments stably orders records by (reference, position, name) —
// SAM "coordinate" sort order. Unmapped records sort last. It sorts an
// index permutation, ties broken on the original index, then moves each
// record once.
func SortAlignments(alns []Alignment) {
	perm := make([]int32, len(alns))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := compareAlignments(&alns[i], &alns[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// Position i takes the record at perm[i]: follow each cycle of the
	// permutation once, marking visited positions with perm[i] = i.
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		held := alns[i]
		j := i
		for {
			next := int(perm[j])
			perm[j] = int32(j)
			if next == i {
				alns[j] = held
				break
			}
			alns[j] = alns[next]
			j = next
		}
	}
}

// MergeSorted merges coordinate-sorted alignment slices into one sorted
// slice (the merge step after parallel per-shard alignment). Equal records
// keep group order, so the result is SortAlignments of the groups'
// concatenation; a group that is not sorted breaks that.
func MergeSorted(groups ...[]Alignment) []Alignment {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]Alignment, 0, total)
	// heads is a binary min-heap of the groups not yet drained, ordered by
	// each one's next record, then by group index.
	next := make([]int, len(groups))
	heads := make([]int, 0, len(groups))
	less := func(g, h int) bool {
		if c := compareAlignments(&groups[g][next[g]], &groups[h][next[h]]); c != 0 {
			return c < 0
		}
		return g < h
	}
	down := func(i int) {
		for {
			least, l := i, 2*i+1
			if l < len(heads) && less(heads[l], heads[least]) {
				least = l
			}
			if r := l + 1; r < len(heads) && less(heads[r], heads[least]) {
				least = r
			}
			if least == i {
				return
			}
			heads[i], heads[least] = heads[least], heads[i]
			i = least
		}
	}
	for g := range groups {
		if len(groups[g]) > 0 {
			heads = append(heads, g)
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		g := heads[0]
		out = append(out, groups[g][next[g]])
		if next[g]++; next[g] == len(groups[g]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
