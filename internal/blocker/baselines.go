package blocker

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// computeGreedy is the blocker construction of Agarwal et al. [2]: after an
// O(|S|*h)-round score computation, repeatedly add the globally
// max-score node. [2] shows the per-pick cleanup (removing the covered
// paths and updating every score along the union in-/out-trees of the pick,
// Lemmas A.5/A.6) costs O(n) rounds; we apply the update locally and charge
// those rounds, while the per-pick score broadcast is simulated. The result
// has the optimal-greedy size Theta(n ln p / h) (Lemma 3.10) but costs
// O(|S|*h + n*|Q|) rounds — the n*|Q| term this paper's Algorithm 2'
// removes.
func computeGreedy(nw *congest.Network, coll *csssp.Collection) (*Result, error) {
	n := nw.N()
	roundsBefore := nw.Stats.Rounds
	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}
	// Initial scores: one upcast per tree (O(|S|*h) rounds).
	score := make([]int64, n)
	init := make([]int64, n)
	for i := range coll.Sources {
		for v := 0; v < n; v++ {
			if coll.InTree(i, v) && coll.Depth[i][v] == coll.H {
				init[v] = 1
			} else {
				init[v] = 0
			}
		}
		counts, err := coll.UpcastSum(nw, i, init)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			if v != coll.Sources[i] && coll.InTree(i, v) {
				score[v] += counts[v]
			}
		}
	}
	inQ := make([]bool, n)
	cnt := make([]int32, n)
	var q []int
	stats := Stats{}
	for countFullPaths(coll) > 0 {
		// Broadcast (id, score) items, pick the max (ties to the smaller
		// id).
		for v := 0; v < n; v++ {
			cnt[v] = b2i(score[v] > 0)
		}
		if err := broadcast.AllToAllCount(nw, tree, cnt); err != nil {
			return nil, err
		}
		best, bestVal := -1, int64(0)
		for v := 0; v < n; v++ {
			if score[v] > bestVal {
				best, bestVal = v, score[v]
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("blocker: greedy stuck with %d paths uncovered", countFullPaths(coll))
		}
		inQ[best] = true
		q = append(q, best)
		stats.SelectionSteps++
		// Cleanup: remove the pick's subtrees and refresh scores. [2]
		// implements this in O(n) rounds per pick via the CSSSP union-tree
		// structure; we apply the same update locally and charge n rounds.
		inZ := make([]bool, n)
		inZ[best] = true
		coll.RemoveSubtreesLocal(inZ, true)
		nw.ChargeRounds(n)
		recomputeScoresLocal(coll, score)
	}
	stats.Rounds = nw.Stats.Rounds - roundsBefore
	sort.Ints(q)
	return &Result{Q: q, InQ: inQ, Stats: stats}, nil
}

// recomputeScoresLocal refreshes score from the collection's current state
// (the local mirror of the O(n)-round update of [2]).
func recomputeScoresLocal(coll *csssp.Collection, score []int64) {
	for v := range score {
		score[v] = 0
	}
	for i := range coll.Sources {
		for _, leaf := range coll.FullLengthLeaves(i) {
			for _, u := range coll.PathVertices(i, leaf) {
				score[u]++
			}
		}
	}
}

// computeRandomSample is the classic sampling construction used by the
// randomized APSP algorithms [13, 20]: include each node with probability
// min(1, c*ln(n)/h), verify coverage with one downcast per tree, and patch
// any uncovered path by adding its leaf. O(|S|*h + n) rounds; |Q| =
// O((n/h) log n) w.h.p.
func computeRandomSample(nw *congest.Network, coll *csssp.Collection, par Params) (*Result, error) {
	n := nw.N()
	roundsBefore := nw.Stats.Rounds
	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(par.Seed))
	p := math.Log(float64(n)+1) / float64(coll.H)
	if p > 1 {
		p = 1
	}
	inQ := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			inQ[v] = true
		}
	}
	// Members broadcast their ids (O(n)).
	cnt := make([]int32, n)
	for v := 0; v < n; v++ {
		cnt[v] = b2i(inQ[v])
	}
	if err := broadcast.AllToAllCount(nw, tree, cnt); err != nil {
		return nil, err
	}
	// Coverage check: Compute-Pi downcast per tree with V_i := Q; leaves
	// with beta == 0 are uncovered, patch themselves in and broadcast
	// their ids.
	clear(cnt)
	stats := Stats{}
	beta := make([]int64, n)
	var walk csssp.TreeWalk
	for i := range coll.Sources {
		coll.Walk(&walk, i)
		if err := computePijDowncastInto(nw, coll, i, &walk, inQ, beta); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			if coll.InTree(i, v) && coll.Depth[i][v] == coll.H && beta[v] == 0 && !inQ[v] {
				inQ[v] = true
				cnt[v] = 1
				stats.FallbackSteps++
			}
		}
	}
	if err := broadcast.AllToAllCount(nw, tree, cnt); err != nil {
		return nil, err
	}
	var q []int
	for v := 0; v < n; v++ {
		if inQ[v] {
			q = append(q, v)
		}
	}
	stats.Rounds = nw.Stats.Rounds - roundsBefore
	return &Result{Q: q, InQ: inQ, Stats: stats}, nil
}
