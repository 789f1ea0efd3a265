package registry

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// fuzzLimits keeps every fuzz decode bounded: small enough that the
// engine explores the cap paths (ErrTooLarge mid-stream), large enough
// that the seed corpus decodes cleanly.
var fuzzLimits = Limits{MaxRecords: 64, MaxBytes: 1 << 16}

// checkStats asserts the accounting contract shared by every decoder:
// records within the cap, a well-formed content hash, and byte counts
// that never exceed the input (DecodeFrames may exceed it by design —
// it accounts resident pixels — so callers opt in to that check).
func checkStats(t *testing.T, st Stats, records int, inputLen int, boundedBytes bool) {
	t.Helper()
	if st.Records != records {
		t.Fatalf("stats.Records = %d, decoded %d", st.Records, records)
	}
	if records > fuzzLimits.MaxRecords {
		t.Fatalf("decoded %d records past the %d cap", records, fuzzLimits.MaxRecords)
	}
	if len(st.Hash) != 64 {
		t.Fatalf("stats.Hash = %q, want 64 hex chars", st.Hash)
	}
	if boundedBytes && st.Bytes > int64(inputLen) {
		t.Fatalf("stats.Bytes = %d > input %d", st.Bytes, inputLen)
	}
}

// redecode asserts decoding is a pure function of the bytes: same body,
// same verdict and same content hash.
func redecode(t *testing.T, err1 error, st1 Stats, err2 error, st2 Stats) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("decode not deterministic: %v vs %v", err1, err2)
	}
	if err1 == nil && st1.Hash != st2.Hash {
		t.Fatalf("hash not reproducible: %q vs %q", st1.Hash, st2.Hash)
	}
}

// FuzzDecodeFASTQ hammers the FASTQ upload decoder: whatever the bytes,
// it must return cleanly — no panics, no runaway reads — and on success
// every read must be validated uppercase bases with matching quality.
func FuzzDecodeFASTQ(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n@r2\nggta\n+\nJJJJ\n"))
	f.Add([]byte("@r1\nACGT\n+\n"))        // truncated record
	f.Add([]byte("@r1\nAXGT\n+\nIIII\n"))  // bad bases
	f.Add([]byte("@r1\nACGT\n+\nII\n"))    // quality length mismatch
	f.Add([]byte("hello world\n"))         // not FASTQ at all
	f.Add([]byte(""))                      // empty body is an error
	f.Add([]byte("@r\nacgtn\n+\nIIIII\n")) // lowercase + N normalize
	f.Add(bytes.Repeat([]byte{'@', '\n'}, 512))
	f.Fuzz(func(t *testing.T, data []byte) {
		reads, st, err := DecodeFASTQ(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			if reads != nil {
				t.Fatalf("error %v returned %d reads", err, len(reads))
			}
			_, st2, err2 := DecodeFASTQ(bytes.NewReader(data), fuzzLimits)
			redecode(t, err, st, err2, st2)
			return
		}
		checkStats(t, st, len(reads), len(data), true)
		if len(reads) == 0 {
			t.Fatal("successful decode with zero reads")
		}
		for _, rd := range reads {
			if len(rd.Seq) != len(rd.Qual) {
				t.Fatalf("read %q: seq %d bases, qual %d", rd.ID, len(rd.Seq), len(rd.Qual))
			}
			for _, b := range rd.Seq {
				switch b {
				case 'A', 'C', 'G', 'T', 'N':
				default:
					t.Fatalf("read %q: unvalidated base %q", rd.ID, b)
				}
			}
		}
		_, st2, err2 := DecodeFASTQ(bytes.NewReader(data), fuzzLimits)
		redecode(t, err, st, err2, st2)
	})
}

// FuzzDecodeMGF hammers the MGF spectra decoder: scans must be properly
// bracketed, peak lists validated (every peak finite and positive), capped
// and sorted ascending.
func FuzzDecodeMGF(f *testing.F) {
	f.Add([]byte("# acquisition export\nBEGIN IONS\nTITLE=scan_a\nPEPMASS=442.7\n500.1 12.0\n250.2 3.0\n750.3\nEND IONS\nBEGIN IONS\n300.5\nEND IONS\n"))
	f.Add([]byte("BEGIN IONS\n100.0\n"))          // unterminated scan
	f.Add([]byte("END IONS\n"))                   // stray end
	f.Add([]byte("100.0\n"))                      // peak outside a scan
	f.Add([]byte("BEGIN IONS\nnope\nEND IONS\n")) // bad peak
	f.Add([]byte("BEGIN IONS\n-1\nEND IONS\n"))   // non-positive mass
	f.Add([]byte("BEGIN IONS\nBEGIN IONS\n"))     // nested begin
	f.Add([]byte("\n"))                           // no scans
	f.Add([]byte("BEGIN IONS\nNaN\nEND IONS\n"))  // non-finite mass
	f.Fuzz(func(t *testing.T, data []byte) {
		spectra, st, err := DecodeMGFSpectra(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			if spectra != nil {
				t.Fatalf("error %v returned %d spectra", err, len(spectra))
			}
			_, st2, err2 := DecodeMGFSpectra(bytes.NewReader(data), fuzzLimits)
			redecode(t, err, st, err2, st2)
			return
		}
		checkStats(t, st, len(spectra), len(data), true)
		if len(spectra) == 0 {
			t.Fatal("successful decode with zero spectra")
		}
		for _, sp := range spectra {
			if sp.ID == "" {
				t.Fatal("spectrum with empty ID")
			}
			if !sort.Float64sAreSorted(sp.Peaks) {
				t.Fatalf("spectrum %q: peaks not sorted: %v", sp.ID, sp.Peaks)
			}
			for _, p := range sp.Peaks {
				if !(p > 0) || math.IsInf(p, 0) {
					t.Fatalf("spectrum %q: peak %v not finite and positive", sp.ID, p)
				}
			}
		}
		_, st2, err2 := DecodeMGFSpectra(bytes.NewReader(data), fuzzLimits)
		redecode(t, err, st, err2, st2)
	})
}

// FuzzDecodeFeatureTable hammers the feature-table decoder feeding the
// integrative workflow: rows parse as 'name value [count]' or fail the
// whole decode; values are finite and counts are never negative.
func FuzzDecodeFeatureTable(f *testing.F) {
	f.Add([]byte("# name value count\ng0 1.5\ng1 -2.25 7\n"))
	f.Add([]byte("g0 abc\n"))    // bad value
	f.Add([]byte("g0 1.0 -3\n")) // negative count
	f.Add([]byte("g0\n"))        // missing columns
	f.Add([]byte("#\n"))         // comments only: no rows
	f.Add([]byte("g0 1e308 2\ng1 NaN\n"))
	f.Add([]byte("a 1\tb 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, st, err := DecodeFeatures(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			if rows != nil {
				t.Fatalf("error %v returned %d rows", err, len(rows))
			}
			_, st2, err2 := DecodeFeatures(bytes.NewReader(data), fuzzLimits)
			redecode(t, err, st, err2, st2)
			return
		}
		checkStats(t, st, len(rows), len(data), true)
		if len(rows) == 0 {
			t.Fatal("successful decode with zero rows")
		}
		for _, r := range rows {
			if r.Name == "" {
				t.Fatal("row with empty name")
			}
			if r.Count < 0 {
				t.Fatalf("row %q: negative count %d", r.Name, r.Count)
			}
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Fatalf("row %q: non-finite value %v", r.Name, r.Value)
			}
		}
		_, st2, err2 := DecodeFeatures(bytes.NewReader(data), fuzzLimits)
		redecode(t, err, st, err2, st2)
	})
}

// TestFuzzSeedsStayCurrent pins the seed corpus to the decoders' actual
// verdicts, so a decoder change that flips a seed from valid to invalid
// (or back) fails loudly here instead of silently weakening the fuzz.
func TestFuzzSeedsStayCurrent(t *testing.T) {
	if _, _, err := DecodeFASTQ(bytes.NewReader([]byte("@r1\nACGT\n+\nIIII\n")), fuzzLimits); err != nil {
		t.Errorf("FASTQ happy seed no longer decodes: %v", err)
	}
	if _, _, err := DecodeMGFSpectra(bytes.NewReader([]byte("BEGIN IONS\n100.0\nEND IONS\n")), fuzzLimits); err != nil {
		t.Errorf("MGF happy seed no longer decodes: %v", err)
	}
	if _, _, err := DecodeFeatures(bytes.NewReader([]byte("g0 1.5\n")), fuzzLimits); err != nil {
		t.Errorf("feature-table happy seed no longer decodes: %v", err)
	}
	if _, _, err := DecodeFASTQ(bytes.NewReader(nil), fuzzLimits); err == nil {
		t.Error("empty FASTQ body must fail")
	}
}
