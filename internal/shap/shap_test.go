package shap

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// values is per-dimension attribution: GroupValues with one group per
// dimension, returned in dimension order.
func values(f func([]float64) float64, x, background []float64, permutations int, rng *rand.Rand) ([]float64, error) {
	groups := map[string][]int{}
	for j := range x {
		groups[strconv.Itoa(j)] = []int{j}
	}
	byName, err := GroupValues(f, x, background, groups, permutations, rng)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for j := range out {
		out[j] = byName[strconv.Itoa(j)]
	}
	return out, nil
}

func TestValuesAdditiveExact(t *testing.T) {
	// For additive f, the Shapley value of dim i is a_i*(x_i - bg_i)
	// for every permutation, so sampling is exact.
	a := []float64{2, -3, 0.5}
	f := func(x []float64) float64 {
		return a[0]*x[0] + a[1]*x[1] + a[2]*x[2]
	}
	x := []float64{1, 1, 1}
	bg := []float64{0, 0.5, -1}
	rng := rand.New(rand.NewSource(1))
	got, err := values(f, x, bg, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		want := a[i] * (x[i] - bg[i])
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("attr[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestValuesSumToDelta(t *testing.T) {
	// Efficiency axiom: attributions sum to f(x) - f(bg), exactly per
	// permutation by telescoping.
	f := func(x []float64) float64 {
		return x[0]*x[1] + math.Sin(x[2]) + x[0]*x[0]
	}
	x := []float64{0.7, 0.3, 1.2}
	bg := []float64{0, 0, 0}
	rng := rand.New(rand.NewSource(2))
	got, err := values(f, x, bg, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	want := f(x) - f(bg)
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("attribution sum %v != delta %v", sum, want)
	}
}

func TestValuesInteractionSplit(t *testing.T) {
	// f = x0*x1 with x=(1,1), bg=(0,0): symmetric dims share the credit.
	f := func(x []float64) float64 { return x[0] * x[1] }
	rng := rand.New(rand.NewSource(3))
	got, err := values(f, []float64{1, 1}, []float64{0, 0}, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 0.05 || math.Abs(got[1]-0.5) > 0.05 {
		t.Fatalf("interaction credit not split: %v", got)
	}
}

func TestValuesErrors(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	rng := rand.New(rand.NewSource(4))
	if _, err := values(f, []float64{1}, []float64{1, 2}, 10, rng); err == nil {
		t.Fatal("accepted mismatched dims")
	}
	if _, err := values(f, nil, nil, 10, rng); err == nil {
		t.Fatal("accepted empty point")
	}
}

func TestGroupValues(t *testing.T) {
	// Two groups: {0,1} and {2}. Additive f → group attribution is the
	// sum of member attributions.
	f := func(x []float64) float64 { return x[0] + 2*x[1] + 4*x[2] }
	x := []float64{1, 1, 1}
	bg := []float64{0, 0, 0}
	rng := rand.New(rand.NewSource(5))
	got, err := GroupValues(f, x, bg, map[string][]int{"ab": {0, 1}, "c": {2}}, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["ab"]-3) > 1e-9 || math.Abs(got["c"]-4) > 1e-9 {
		t.Fatalf("group attributions = %v", got)
	}
}

func TestGroupValuesErrors(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	rng := rand.New(rand.NewSource(6))
	if _, err := GroupValues(f, []float64{1}, []float64{1}, nil, 10, rng); err == nil {
		t.Fatal("accepted empty groups")
	}
	if _, err := GroupValues(f, []float64{1}, []float64{1}, map[string][]int{"g": {5}}, 10, rng); err == nil {
		t.Fatal("accepted out-of-range group dim")
	}
}

func TestGroupValuesDeterministicPerSeed(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[1] + x[2] }
	x := []float64{1, 2, 3}
	bg := []float64{0, 0, 0}
	groups := map[string][]int{"a": {0}, "b": {1}, "c": {2}}
	a, _ := GroupValues(f, x, bg, groups, 25, rand.New(rand.NewSource(7)))
	b, _ := GroupValues(f, x, bg, groups, 25, rand.New(rand.NewSource(7)))
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("non-deterministic group attribution for %s", k)
		}
	}
}
