package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. An empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vals in ascending order, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vals (mean of the two middle values
// for an even count). An empty slice gives 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean of vals. An empty slice gives 0.
func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

// spread is the min–max range a reported median was taken from.
type spread struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// spreadOf returns the min–max range of vals.
func spreadOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := spread{Min: vals[0], Max: vals[0]}
	for _, v := range vals[1:] {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// relWidth is the spread's width as a share of ref (0 when ref is 0).
func (s spread) relWidth(ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(ref)
}

// histQuantile estimates the q-quantile (0 < q < 1) of a cumulative-bucket
// histogram by linear interpolation inside the bucket that crosses it. les
// are the upper bounds, cum the cumulative counts; a final bound below 0 is
// the +Inf bucket, which reports its lower edge.
func histQuantile(les, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q * cum[len(cum)-1]
	lower, below := 0.0, 0.0
	for i, c := range cum {
		if c >= target {
			if les[i] < 0 {
				return lower
			}
			in := c - below
			if in == 0 {
				return les[i]
			}
			return lower + (les[i]-lower)*(target-below)/in
		}
		if les[i] >= 0 {
			lower = les[i]
		}
		below = c
	}
	return lower
}
