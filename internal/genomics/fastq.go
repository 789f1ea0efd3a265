package genomics

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Read is one sequencing read: identifier, bases and Phred+33 qualities.
type Read struct {
	ID   string
	Seq  []byte
	Qual []byte
}

// FASTQReader streams records from FASTQ input without loading the whole
// file, which is what lets the Data Broker shard multi-gigabyte inputs.
type FASTQReader struct {
	sc   *bufio.Scanner
	line int
}

// NewFASTQReader returns a streaming reader over r.
func NewFASTQReader(r io.Reader) *FASTQReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &FASTQReader{sc: sc}
}

// Next returns the next read, or io.EOF after the last record.
func (f *FASTQReader) Next() (Read, error) {
	id, err := f.nextLine()
	if err != nil {
		return Read{}, err
	}
	if !strings.HasPrefix(id, "@") {
		return Read{}, fmt.Errorf("genomics: line %d: FASTQ header must start with '@', got %q", f.line, id)
	}
	seq, err := f.nextLine()
	if err != nil {
		return Read{}, f.truncated(err)
	}
	plus, err := f.nextLine()
	if err != nil {
		return Read{}, f.truncated(err)
	}
	if !strings.HasPrefix(plus, "+") {
		return Read{}, fmt.Errorf("genomics: line %d: expected '+' separator, got %q", f.line, plus)
	}
	qual, err := f.nextLine()
	if err != nil {
		return Read{}, f.truncated(err)
	}
	if len(seq) != len(qual) {
		return Read{}, fmt.Errorf("genomics: line %d: sequence length %d != quality length %d",
			f.line, len(seq), len(qual))
	}
	return Read{
		ID:   strings.TrimPrefix(firstField(id), "@"),
		Seq:  []byte(seq),
		Qual: []byte(qual),
	}, nil
}

func (f *FASTQReader) truncated(err error) error {
	if err == io.EOF {
		return fmt.Errorf("genomics: line %d: truncated FASTQ record", f.line)
	}
	return err
}

// nextLine returns the next non-empty line.
func (f *FASTQReader) nextLine() (string, error) {
	for f.sc.Scan() {
		f.line++
		text := strings.TrimRight(f.sc.Text(), "\r")
		if text != "" {
			return text, nil
		}
	}
	if err := f.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// FASTQWriter streams records to an output.
type FASTQWriter struct {
	bw *bufio.Writer
}

// NewFASTQWriter returns a writer over w.
func NewFASTQWriter(w io.Writer) *FASTQWriter {
	return &FASTQWriter{bw: bufio.NewWriter(w)}
}

// Write emits one record.
func (f *FASTQWriter) Write(r Read) error {
	if len(r.Seq) != len(r.Qual) {
		return fmt.Errorf("genomics: read %q: sequence/quality length mismatch", r.ID)
	}
	if _, err := fmt.Fprintf(f.bw, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, r.Qual); err != nil {
		return err
	}
	return nil
}

// Flush flushes buffered output.
func (f *FASTQWriter) Flush() error { return f.bw.Flush() }

// WriteAllFASTQ writes every read to w.
func WriteAllFASTQ(w io.Writer, reads []Read) error {
	fw := NewFASTQWriter(w)
	for _, r := range reads {
		if err := fw.Write(r); err != nil {
			return err
		}
	}
	return fw.Flush()
}
