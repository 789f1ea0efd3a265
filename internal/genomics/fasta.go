// Package genomics implements the genomic records and synthetic data
// generation that stand in for the paper's NGS inputs: FASTA references,
// FASTQ reads, alignment records with their coordinate sort and k-way
// merge, and SNV calls with their sort and deduplicating merge. An
// alignment holds what the kernels read — position, matched length, flag,
// MapQ and edit distance — and the index of its read, whose bases and
// qualities stay in the read; a call holds its position, bases and
// quality. The reference they lie on is their dataset's. Alignments and
// calls stay in memory; the only codec they cross a process boundary in is
// the fleet's wire codec.
//
// The synthetic generator produces seeded, reproducible references and
// reads with configurable sequencing error and planted mutations, so the
// full SCAN data path (shard → align → call variants → merge) can run
// without proprietary sequencing data.
package genomics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Sequence is a named nucleotide sequence (a FASTA record).
type Sequence struct {
	Name string
	Seq  []byte
}

// Len returns the sequence length in bases.
func (s Sequence) Len() int { return len(s.Seq) }

// WriteFASTA writes records to w, wrapping sequence lines at width columns
// (60 when width <= 0).
func WriteFASTA(w io.Writer, seqs []Sequence, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	for _, s := range seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Name); err != nil {
			return err
		}
		for i := 0; i < len(s.Seq); i += width {
			end := i + width
			if end > len(s.Seq) {
				end = len(s.Seq)
			}
			if _, err := bw.Write(s.Seq[i:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// firstField returns the header text up to the first whitespace, matching
// how aligners treat FASTA description lines.
func firstField(s string) string {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i]
	}
	return s
}

// ValidateBases reports the first non-ACGTN byte in seq, if any.
func ValidateBases(seq []byte) error {
	for i, b := range seq {
		if !validBase[b] {
			return fmt.Errorf("genomics: invalid base %q at offset %d", b, i)
		}
	}
	return nil
}

// validBase marks the bytes ValidateBases accepts: ACGTN in either case.
var validBase = func() (t [256]bool) {
	for _, b := range []byte("ACGTNacgtn") {
		t[b] = true
	}
	return t
}()

// Upper returns seq with lowercase bases folded to uppercase, allocating
// only when needed.
func Upper(seq []byte) []byte {
	if !bytes.ContainsAny(seq, "acgtn") {
		return seq
	}
	return bytes.ToUpper(seq)
}
