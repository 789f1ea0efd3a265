package genomics

import (
	"cmp"
	"slices"
)

// Variant is one SNV call: the reference and alternate bases at a 1-based
// position of the dataset's reference, with a Phred-style quality.
type Variant struct {
	Pos      int
	Ref, Alt byte
	Qual     float64
}

func compareVariants(a, b Variant) int {
	return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Ref, b.Ref), cmp.Compare(a.Alt, b.Alt))
}

// SortVariants stably orders calls by (Pos, Ref, Alt).
func SortVariants(vars []Variant) { slices.SortStableFunc(vars, compareVariants) }

// MergeVariants concatenates per-shard call sets, sorts them, and collapses
// duplicate (pos, ref, alt) calls keeping the highest quality — the merge
// step of the paper's VariantsToVCF-style gather stage.
func MergeVariants(groups ...[]Variant) []Variant {
	all := slices.Concat(groups...)
	SortVariants(all)
	var out []Variant
	for _, v := range all {
		if n := len(out); n > 0 && compareVariants(out[n-1], v) == 0 {
			if v.Qual > out[n-1].Qual {
				out[n-1] = v
			}
			continue
		}
		out = append(out, v)
	}
	return out
}
