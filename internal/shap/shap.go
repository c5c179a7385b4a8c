// Package shap computes approximate Shapley values of input dimensions
// for a black-box prediction function, via permutation sampling (Lundberg
// & Lee's sampling approximation of the SHAP values the paper uses for
// Figure 13(b)). The attribution of dimension j is its average marginal
// contribution when added in a random order, measured between a point of
// interest x and a background point.
package shap

import (
	"fmt"
	"math/rand"
)

// GroupValues attributes over groups of dimensions: each group is toggled
// between background and x atomically. groups maps a group name to its
// dimension indexes. It returns per-group attributions.
func GroupValues(f func([]float64) float64, x, background []float64, groups map[string][]int, permutations int, rng *rand.Rand) (map[string]float64, error) {
	if len(x) != len(background) {
		return nil, fmt.Errorf("shap: point dim %d != background dim %d", len(x), len(background))
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("shap: no groups")
	}
	if permutations < 1 {
		permutations = 50
	}
	names := make([]string, 0, len(groups))
	for name, dims := range groups {
		for _, j := range dims {
			if j < 0 || j >= len(x) {
				return nil, fmt.Errorf("shap: group %q has out-of-range dim %d", name, j)
			}
		}
		names = append(names, name)
	}
	// Deterministic order for reproducibility regardless of map order.
	sortStrings(names)

	attr := make(map[string]float64, len(names))
	cur := make([]float64, len(x))
	for p := 0; p < permutations; p++ {
		perm := rng.Perm(len(names))
		copy(cur, background)
		prev := f(cur)
		for _, gi := range perm {
			name := names[gi]
			for _, j := range groups[name] {
				cur[j] = x[j]
			}
			next := f(cur)
			attr[name] += next - prev
			prev = next
		}
	}
	for name := range attr {
		attr[name] /= float64(permutations)
	}
	return attr, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
