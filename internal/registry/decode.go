package registry

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/proteome"
	"scan/internal/workflow"
)

// scanBufPool recycles the decoders' 64 KiB line buffers: every upload
// decode needs one, uploads arrive continuously under the API, and the
// buffers are size-capped — so they are pooled instead of re-allocated per
// decode.
var scanBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64*1024)
	return &b
}}

// pooledScanner builds a line scanner over r backed by a recycled buffer.
// The returned release puts the buffer back; call it only once the decode
// is finished with every token.
func pooledScanner(r io.Reader) (*bufio.Scanner, func()) {
	sc := bufio.NewScanner(r)
	bp := scanBufPool.Get().(*[]byte)
	sc.Buffer((*bp)[:0], 4*1024*1024)
	return sc, func() { scanBufPool.Put(bp) }
}

// isSpace reports ASCII whitespace — the only separators the registry's
// line-oriented text formats use.
func isSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// appendFields appends the whitespace-separated fields of s to dst[:0],
// reusing dst's backing array — strings.Fields without the per-record
// slice allocation.
func appendFields(dst []string, s string) []string {
	dst = dst[:0]
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		start := i
		for i < len(s) && !isSpace(s[i]) {
			i++
		}
		if start < i {
			dst = append(dst, s[start:i])
		}
	}
	return dst
}

// The streaming decoders. Each parses an upload body record by record —
// never materializing the raw payload — and enforces its caps mid-stream:
// a body past the byte bound or the record bound aborts the decode with
// ErrTooLarge without consuming the rest of the stream, so an oversized
// (or unbounded) upload costs the daemon at most the cap, not the body.

// ErrTooLarge reports an upload that exceeded a decode limit mid-stream.
var ErrTooLarge = errors.New("registry: payload exceeds the upload limit")

// Limits bounds one decode.
type Limits struct {
	// MaxRecords bounds the decoded record count (reads, spectra, frames,
	// rows, peptides; sequences for FASTA).
	MaxRecords int
	// MaxBytes bounds the consumed input bytes.
	MaxBytes int64
}

// Stats describes one decoded payload stream: its record count, the bytes
// consumed from the upload, and the hex SHA-256 of those bytes.
type Stats struct {
	Records int
	// Bytes is the wire size: the bytes consumed from the upload, which
	// Hash covers and which a spooled or blob-stored part must match.
	Bytes int64
	// Resident is the decoded payload's memory footprint where decoding
	// expands it past the wire size (text PGM frames into float64 pixels),
	// 0 otherwise. The store bound, tenant quotas and Dataset.Bytes account
	// the larger of the two (footprint).
	Resident int64
	Hash     string
}

// footprint is the byte count the store accounts for the payload.
func (s Stats) footprint() int64 { return max(s.Bytes, s.Resident) }

// CombineStats merges multi-part decode stats (an MGF dataset uploads a
// peptide database part and a spectra part) into one dataset-level
// accounting: records is the primary part's record count, wire bytes and
// footprints sum, and the hash chains the part hashes in order.
func CombineStats(records int, parts ...Stats) Stats {
	h := sha256.New()
	var bytes, resident int64
	for _, p := range parts {
		io.WriteString(h, p.Hash)
		bytes += p.Bytes
		resident += p.footprint()
	}
	return Stats{Records: records, Bytes: bytes, Resident: resident, Hash: hex.EncodeToString(h.Sum(nil))}
}

// source wraps the upload stream for a decoder: it counts and hashes every
// consumed byte and fails the stream once the byte bound is crossed, which
// surfaces through bufio.Scanner as a read error mid-decode.
type source struct {
	r   io.Reader
	h   hash.Hash
	n   int64
	max int64
}

func newSource(r io.Reader, maxBytes int64) *source {
	return &source{r: r, h: sha256.New(), max: maxBytes}
}

func (s *source) Read(p []byte) (int, error) {
	if s.max > 0 && s.n >= s.max {
		return 0, fmt.Errorf("%w: body larger than %d bytes", ErrTooLarge, s.max)
	}
	n, err := s.r.Read(p)
	if n > 0 {
		s.h.Write(p[:n])
		s.n += int64(n)
	}
	return n, err
}

func (s *source) stats(records int) Stats {
	return Stats{Records: records, Bytes: s.n, Hash: hex.EncodeToString(s.h.Sum(nil))}
}

// tooMany renders the mid-stream record-cap error.
func tooMany(unit string, max int) error {
	return fmt.Errorf("%w: more than %d %s", ErrTooLarge, max, unit)
}

// DecodeFASTQ streams FASTQ records (4-line, Phred+33), validating bases
// and quality lengths per record.
func DecodeFASTQ(r io.Reader, lim Limits) ([]genomics.Read, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	fr := genomics.NewFASTQReader(src)
	var reads []genomics.Read
	for {
		rd, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, src.stats(len(reads)), err
		}
		rd.Seq = genomics.Upper(rd.Seq)
		if err := genomics.ValidateBases(rd.Seq); err != nil {
			return nil, src.stats(len(reads)), fmt.Errorf("registry: read %q: %w", rd.ID, err)
		}
		if len(reads) >= lim.MaxRecords {
			return nil, src.stats(len(reads)), tooMany("reads", lim.MaxRecords)
		}
		reads = append(reads, rd)
	}
	if len(reads) == 0 {
		return nil, src.stats(0), errors.New("registry: FASTQ body holds no records")
	}
	return reads, src.stats(len(reads)), nil
}

// DecodeFASTA streams exactly one FASTA sequence — a reference genome. The
// sequence must be at least 16 bases (the aligner's seed length); a second
// record is an error, since a workflow runs against one reference.
func DecodeFASTA(r io.Reader, lim Limits) (genomics.Sequence, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	sc, release := pooledScanner(src)
	defer release()
	name := ""
	var seq []byte
	seen := false
	fail := func(err error) (genomics.Sequence, Stats, error) {
		return genomics.Sequence{}, src.stats(0), err
	}
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case line == "":
		case strings.HasPrefix(line, ">"):
			if seen {
				return fail(errors.New("registry: a reference upload must hold exactly one FASTA sequence"))
			}
			seen = true
			name = firstField(strings.TrimPrefix(line, ">"))
		default:
			if !seen {
				return fail(errors.New("registry: FASTA body must start with a '>' header"))
			}
			seq = append(seq, genomics.Upper([]byte(line))...)
		}
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if len(seq) < 16 {
		return fail(fmt.Errorf("registry: reference must be at least 16 bases (the aligner's seed length), got %d", len(seq)))
	}
	if err := genomics.ValidateBases(seq); err != nil {
		return fail(fmt.Errorf("registry: reference: %w", err))
	}
	if name == "" {
		name = "ref"
	}
	return genomics.Sequence{Name: name, Seq: seq}, src.stats(1), nil
}

// maxPeaksPerSpectrum bounds one MGF scan's peak list.
const maxPeaksPerSpectrum = 4096

// DecodeMGFSpectra streams MGF scans (BEGIN IONS … END IONS blocks; peak
// lines are "m/z [intensity]", of which the mass is kept). Unknown KEY=VALUE
// headers are skipped; TITLE names the spectrum.
func DecodeMGFSpectra(r io.Reader, lim Limits) ([]proteome.Spectrum, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	sc, release := pooledScanner(src)
	defer release()
	var spectra []proteome.Spectrum
	var cur *proteome.Spectrum
	line := 0
	fail := func(format string, args ...any) ([]proteome.Spectrum, Stats, error) {
		return nil, src.stats(len(spectra)), fmt.Errorf("registry: MGF line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
		case text == "BEGIN IONS":
			if cur != nil {
				return fail("BEGIN IONS inside an open scan")
			}
			if len(spectra) >= lim.MaxRecords {
				return nil, src.stats(len(spectra)), tooMany("spectra", lim.MaxRecords)
			}
			cur = &proteome.Spectrum{ID: fmt.Sprintf("spec%05d", len(spectra))}
		case text == "END IONS":
			if cur == nil {
				return fail("END IONS without BEGIN IONS")
			}
			sort.Float64s(cur.Peaks)
			spectra = append(spectra, *cur)
			cur = nil
		case strings.Contains(text, "="):
			if cur != nil {
				if title, ok := strings.CutPrefix(text, "TITLE="); ok && title != "" {
					cur.ID = firstField(title)
				}
			}
			// KEY=VALUE headers outside a scan (or PEPMASS, CHARGE, …)
			// carry nothing the search model uses.
		default:
			if cur == nil {
				return fail("peak %q outside BEGIN IONS", text)
			}
			mass, ok := parseMass(firstField(text))
			if !ok {
				return fail("bad peak %q", text)
			}
			if len(cur.Peaks) >= maxPeaksPerSpectrum {
				return nil, src.stats(len(spectra)), tooMany("peaks in one spectrum", maxPeaksPerSpectrum)
			}
			cur.Peaks = append(cur.Peaks, mass)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, src.stats(len(spectra)), err
	}
	if cur != nil {
		return nil, src.stats(len(spectra)), fmt.Errorf("registry: MGF body ends inside an open scan (missing END IONS)")
	}
	if len(spectra) == 0 {
		return nil, src.stats(0), errors.New("registry: MGF body holds no scans")
	}
	return spectra, src.stats(len(spectra)), nil
}

// parseFinite parses a finite number; strconv.ParseFloat takes "nan", "inf".
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// parseMass parses a peak or fragment mass, which must be finite and positive.
func parseMass(s string) (float64, bool) {
	v, ok := parseFinite(s)
	return v, ok && v > 0
}

// DecodePeptides streams a peptide-database table: one peptide per line,
// whitespace-separated "protein peptide m1,m2,…" with '#' comments. The
// fragment ladder is sorted ascending, as proteome.GenerateDatabase builds
// it.
func DecodePeptides(r io.Reader, lim Limits) (proteome.Database, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	sc, release := pooledScanner(src)
	defer release()
	var db proteome.Database
	var fields []string
	line := 0
	fail := func(format string, args ...any) (proteome.Database, Stats, error) {
		return proteome.Database{}, src.stats(len(db.Peptides)),
			fmt.Errorf("registry: peptides line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields = appendFields(fields, text)
		if len(fields) != 3 {
			return fail("want 'protein peptide m1,m2,…', got %q", text)
		}
		if len(db.Peptides) >= lim.MaxRecords {
			return proteome.Database{}, src.stats(len(db.Peptides)), tooMany("peptides", lim.MaxRecords)
		}
		masses := make([]float64, 0, strings.Count(fields[2], ",")+1)
		for rest, more := fields[2], true; more; {
			var m string
			m, rest, more = strings.Cut(rest, ",")
			v, ok := parseMass(m)
			if !ok {
				return fail("bad fragment mass %q", m)
			}
			masses = append(masses, v)
		}
		sort.Float64s(masses)
		db.Peptides = append(db.Peptides, proteome.Peptide{
			Protein: fields[0], Name: fields[1], Masses: masses,
		})
	}
	if err := sc.Err(); err != nil {
		return proteome.Database{}, src.stats(len(db.Peptides)), err
	}
	if len(db.Peptides) == 0 {
		return proteome.Database{}, src.stats(0), errors.New("registry: peptide database holds no peptides")
	}
	return db, src.stats(len(db.Peptides)), nil
}

// Frame geometry bounds, mirroring the synthetic imaging caps.
const (
	minFrameSide = 32
	maxFrameSide = 1024
)

// DecodeFrames streams microscopy frames as concatenated plain-text PGM
// ("P2") images — the text stand-in for TIFF, matching the repo's other
// text substrates (SAM for BAM). Each frame is "P2, width, height, maxval,
// then width×height intensities"; '#' comments are allowed anywhere.
func DecodeFrames(r io.Reader, lim Limits) ([]imaging.Image, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	toks := newTokenReader(src)
	defer toks.release()
	var frames []imaging.Image
	for {
		magic, err := toks.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, src.stats(len(frames)), err
		}
		if magic != "P2" {
			return nil, src.stats(len(frames)), fmt.Errorf("registry: frame %d: want P2 magic, got %q", len(frames), magic)
		}
		if len(frames) >= lim.MaxRecords {
			return nil, src.stats(len(frames)), tooMany("frames", lim.MaxRecords)
		}
		w, errW := toks.nextInt()
		h, errH := toks.nextInt()
		maxv, errM := toks.nextInt()
		if errW != nil || errH != nil || errM != nil {
			return nil, src.stats(len(frames)), fmt.Errorf("registry: frame %d: truncated PGM header", len(frames))
		}
		if w < minFrameSide || w > maxFrameSide || h < minFrameSide || h > maxFrameSide {
			return nil, src.stats(len(frames)),
				fmt.Errorf("registry: frame %d: %dx%d outside [%d, %d]", len(frames), w, h, minFrameSide, maxFrameSide)
		}
		if maxv < 1 || maxv > 65535 {
			return nil, src.stats(len(frames)), fmt.Errorf("registry: frame %d: bad maxval %d", len(frames), maxv)
		}
		im := imaging.Image{ID: fmt.Sprintf("frame%d", len(frames)), W: w, H: h, Pix: make([]float64, w*h)}
		for i := range im.Pix {
			v, err := toks.nextInt()
			if err != nil {
				return nil, src.stats(len(frames)), fmt.Errorf("registry: frame %d: truncated pixel data", len(frames))
			}
			if v < 0 || v > maxv {
				return nil, src.stats(len(frames)), fmt.Errorf("registry: frame %d: pixel %d outside [0, %d]", len(frames), v, maxv)
			}
			im.Pix[i] = float64(v) / float64(maxv)
		}
		frames = append(frames, im)
	}
	if len(frames) == 0 {
		return nil, src.stats(0), errors.New("registry: frame body holds no P2 images")
	}
	// Text PGM expands into resident float64 pixels (up to ~4× the wire
	// size for single-digit intensities); report that footprint beside the
	// wire size so the store's byte bound tracks real memory.
	st := src.stats(len(frames))
	for _, f := range frames {
		st.Resident += int64(len(f.Pix)) * 8
	}
	return frames, st, nil
}

// DecodeFeatures streams a feature table: one row per line, whitespace-
// separated "name value [count]" with '#' comments — the gene-level
// measurements the integrative workflow consumes. Values must be finite.
func DecodeFeatures(r io.Reader, lim Limits) ([]workflow.Feature, Stats, error) {
	src := newSource(r, lim.MaxBytes)
	sc, release := pooledScanner(src)
	defer release()
	var rows []workflow.Feature
	var fields []string
	line := 0
	fail := func(format string, args ...any) ([]workflow.Feature, Stats, error) {
		return nil, src.stats(len(rows)), fmt.Errorf("registry: features line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields = appendFields(fields, text)
		if len(fields) != 2 && len(fields) != 3 {
			return fail("want 'name value [count]', got %q", text)
		}
		if len(rows) >= lim.MaxRecords {
			return nil, src.stats(len(rows)), tooMany("rows", lim.MaxRecords)
		}
		value, ok := parseFinite(fields[1]) // a log ratio may be zero or negative
		if !ok {
			return fail("bad value %q", fields[1])
		}
		f := workflow.Feature{Name: fields[0], Count: 1, Value: value}
		if len(fields) == 3 {
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fail("bad count %q", fields[2])
			}
			f.Count = n
		}
		rows = append(rows, f)
	}
	if err := sc.Err(); err != nil {
		return nil, src.stats(len(rows)), err
	}
	if len(rows) == 0 {
		return nil, src.stats(0), errors.New("registry: feature table holds no rows")
	}
	return rows, src.stats(len(rows)), nil
}

// tokenReader yields whitespace-separated tokens line by line, dropping
// '#' comments — the PGM lexical layer. Its token slice is reused across
// lines; call release when done to return the pooled scan buffer.
type tokenReader struct {
	sc      *bufio.Scanner
	release func()
	toks    []string
	i       int
}

func newTokenReader(r io.Reader) *tokenReader {
	sc, release := pooledScanner(r)
	return &tokenReader{sc: sc, release: release}
}

func (t *tokenReader) next() (string, error) {
	for t.i >= len(t.toks) {
		if !t.sc.Scan() {
			if err := t.sc.Err(); err != nil {
				return "", err
			}
			return "", io.EOF
		}
		line := t.sc.Text()
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		t.toks = appendFields(t.toks, line)
		t.i = 0
	}
	tok := t.toks[t.i]
	t.i++
	return tok, nil
}

func (t *tokenReader) nextInt() (int, error) {
	tok, err := t.next()
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(tok)
}

// firstField returns the first whitespace-separated field of s as a
// substring — no per-call allocation, unlike strings.Fields.
func firstField(s string) string {
	start := 0
	for start < len(s) && isSpace(s[start]) {
		start++
	}
	end := start
	for end < len(s) && !isSpace(s[end]) {
		end++
	}
	if end > start {
		return s[start:end]
	}
	return s
}
