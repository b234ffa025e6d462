package metrics

// JainIndex computes Jain's fairness index over per-tenant allocations
// (throughputs, achieved shares): (Σx)² / (n·Σx²). It is 1 when every
// tenant receives an identical allocation and approaches 1/n when one
// tenant monopolizes the resource. Non-positive entries count as zero
// allocation; an empty or all-zero input reports 0.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}
