package mobo

import "sort"

// EHVIExact computes the exact expected hypervolume improvement of a
// candidate with independent Gaussian posteriors N(meanA, stdA²) and
// N(meanB, stdB²) over the front (both objectives maximized, bounded
// below by ref).
//
// It uses the strip decomposition of the 2-D improvement region: sort the
// front by descending A; between consecutive A values the front's B-level
// is constant, so the improvement factorizes per strip and
//
//	EHVI = Σ_strips (Ψa(L) − Ψa(U)) · Ψb(B_strip)
//
// with Ψ(c) = E[max(0, Y − c)], which is EI with c as the incumbent.
// Points of the front not strictly above ref are ignored, matching
// Hypervolume.
func EHVIExact(meanA, stdA, meanB, stdB float64, ref Point, front []Point) float64 {
	// Keep points strictly dominating ref and reduce to the Pareto front.
	var kept []Point
	for _, p := range front {
		if p.A > ref.A && p.B > ref.B {
			kept = append(kept, p)
		}
	}
	kept = Front(kept)
	sort.Slice(kept, func(i, j int) bool { return kept[i].A > kept[j].A })

	psiA := func(c float64) float64 { return EI(meanA, stdA, c) }
	psiB := func(c float64) float64 { return EI(meanB, stdB, c) }

	if len(kept) == 0 {
		return psiA(ref.A) * psiB(ref.B)
	}
	m := len(kept)
	total := 0.0
	// Strip 0: A in [a_1, ∞), B-level ref.B.
	total += psiA(kept[0].A) * psiB(ref.B)
	// Strips 1..m-1: A in [a_{i+1}, a_i], B-level b_i.
	for i := 0; i < m-1; i++ {
		total += (psiA(kept[i+1].A) - psiA(kept[i].A)) * psiB(kept[i].B)
	}
	// Strip m: A in [ref.A, a_m], B-level b_m.
	total += (psiA(ref.A) - psiA(kept[m-1].A)) * psiB(kept[m-1].B)
	if total < 0 {
		// Numerical noise from cancellation; EHVI is non-negative.
		total = 0
	}
	return total
}
