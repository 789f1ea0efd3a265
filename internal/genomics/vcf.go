package genomics

import "sort"

// Variant is one VCF record (SNVs only in this toolkit).
type Variant struct {
	Chrom  string
	Pos    int // 1-based
	ID     string
	Ref    string
	Alt    string
	Qual   float64
	Filter string
	Info   string
}

// SortVariants orders records by (chrom, pos, alt).
func SortVariants(vars []Variant) {
	sort.SliceStable(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if a.Chrom != b.Chrom {
			return a.Chrom < b.Chrom
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Alt < b.Alt
	})
}

// MergeVariants concatenates per-shard call sets, sorts them, and collapses
// duplicate (chrom, pos, ref, alt) records keeping the highest quality —
// the merge step of the paper's VariantsToVCF-style gather stage.
func MergeVariants(groups ...[]Variant) []Variant {
	var all []Variant
	for _, g := range groups {
		all = append(all, g...)
	}
	SortVariants(all)
	var out []Variant
	for _, v := range all {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Chrom == v.Chrom && last.Pos == v.Pos && last.Ref == v.Ref && last.Alt == v.Alt {
				if v.Qual > last.Qual {
					*last = v
				}
				continue
			}
		}
		out = append(out, v)
	}
	return out
}
