package fleet

// Quorum vote merging for Coordinator.ScoreBatch.

// resolveVotes merges quorum members' per-query answers into final
// classes and confidences. votes[m][i] / confs[m][i] are member m's
// class and confidence for query i; there is at least one member, and
// all members answer every query.
//
// A query every member agrees on is answered directly, with the
// highest confidence any member reported. The first disagreement
// invokes full() — lazily, at most once — to obtain the complete
// active voter set, and every disagreeing query is settled by
// majorityVote over it. The returned bool reports whether escalation
// happened.
func resolveVotes(votes [][]int, confs [][]float64, full func() ([][]int, [][]float64)) ([]int, []float64, bool) {
	n := len(votes[0])
	classes := make([]int, n)
	out := make([]float64, n)
	var fullVotes [][]int
	var fullConfs [][]float64
	escalated := false
	for i := 0; i < n; i++ {
		agreed := true
		for m := 1; m < len(votes); m++ {
			if votes[m][i] != votes[0][i] {
				agreed = false
				break
			}
		}
		if agreed {
			classes[i] = votes[0][i]
			out[i] = maxConfAt(confs, i)
			continue
		}
		if fullVotes == nil {
			escalated = true
			fullVotes, fullConfs = full()
		}
		classes[i], out[i] = majorityVote(fullVotes, fullConfs, i)
	}
	return classes, out, escalated
}

// maxConfAt returns the highest confidence any voter reported for
// query i.
func maxConfAt(confs [][]float64, i int) float64 {
	best := 0.0
	for _, c := range confs {
		if c[i] > best {
			best = c[i]
		}
	}
	return best
}

// majorityVote tallies the voters' classes for query i. The winner is
// the class with the most votes; ties break toward the higher summed
// confidence, then the lower class id (fully deterministic). The
// returned confidence is the highest any voter gave the winner.
func majorityVote(votes [][]int, confs [][]float64, i int) (int, float64) {
	count := map[int]int{}
	confSum := map[int]float64{}
	confMax := map[int]float64{}
	for vi := range votes {
		c := votes[vi][i]
		count[c]++
		confSum[c] += confs[vi][i]
		if confs[vi][i] > confMax[c] {
			confMax[c] = confs[vi][i]
		}
	}
	best, bestN := -1, -1
	for c, n := range count {
		switch {
		case n > bestN,
			n == bestN && confSum[c] > confSum[best],
			n == bestN && confSum[c] == confSum[best] && c < best:
			best, bestN = c, n
		}
	}
	return best, confMax[best]
}
