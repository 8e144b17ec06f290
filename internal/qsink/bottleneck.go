package qsink

import (
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// computeBottlenecks implements Compute-Bottleneck (Algorithm 13): it
// returns the set B of nodes whose removal (with their subtrees, across all
// trees of cq) brings every node's total forwarding load down to the given
// bound. The per-tree loads count_{v,c} are computed with the Compute-Count
// convergecast (Algorithm 14, h+1 rounds per tree); each elimination round
// broadcasts the load values (O(n), Lemma A.2) and picks the maximum,
// breaking ties toward the smaller id; the post-pick load update runs on
// the CSSSP union trees in O(n) rounds ([2, 1], charged), mirrored locally.
//
// Lemma A.15: on return every load is at most bound. Lemma A.16: |B| <=
// sqrt(|Q|) when bound = n*sqrt(|Q|), because each pick removes more than
// bound nodes from trees holding at most n*|Q| nodes in total.
func computeBottlenecks(nw *congest.Network, cq *csssp.Collection, tree *broadcast.Tree, bound int64) (B []int, loadBefore, loadAfter int64, err error) {
	n := cq.G.N
	q := cq.NumTrees()

	// Step 1: count_{v,c} for every tree (charged convergecasts), summed
	// into total_count_v locally (Step 2). The per-tree counts are consumed
	// immediately, so one reused buffer serves all q upcasts, and the sums
	// walk each tree rather than scanning all n nodes.
	ones := make([]int64, n)
	for v := range ones {
		ones[v] = 1
	}
	total := make([]int64, n)
	counts := make([]int64, n)
	var walk csssp.TreeWalk
	addCounts := func() { // the walked tree's counts, root excluded
		for _, v := range walk.Descendants() {
			total[v] += counts[v]
		}
	}
	for i := 0; i < q; i++ {
		cq.Walk(&walk, i)
		if err := cq.UpcastSumInto(nw, &walk, i, ones, counts); err != nil {
			return nil, 0, 0, err
		}
		addCounts()
	}
	loadBefore = maxOf(total)
	loadAfter = loadBefore

	cnt := make([]int32, n)

	// Steps 3-6: eliminate until no node exceeds the bound.
	for {
		// Step 4: broadcast the (id, load) values (only overloaded nodes
		// need to speak; O(n) rounds either way).
		for v := 0; v < n; v++ {
			cnt[v] = 0
			if total[v] > bound {
				cnt[v] = 1
			}
		}
		if err := broadcast.AllToAllCount(nw, tree, cnt); err != nil {
			return nil, 0, 0, err
		}
		best, bestVal := -1, bound
		for v := 0; v < n; v++ {
			if total[v] > bestVal {
				best, bestVal = v, total[v]
			}
		}
		if best < 0 {
			break
		}
		B = append(B, best)
		// Step 6: remove best's subtrees everywhere and refresh loads. [2,1]
		// do this along the union in-/out-trees in O(n) rounds; we apply the
		// identical update locally and charge those rounds.
		inZ := make([]bool, n)
		inZ[best] = true
		cq.RemoveSubtreesLocal(inZ, false)
		nw.ChargeRounds(n)
		clear(total)
		for i := 0; i < q; i++ {
			cq.Walk(&walk, i)
			cq.UpcastSumLocal(&walk, i, ones, counts)
			addCounts()
		}
		loadAfter = maxOf(total)
	}
	// The eliminations above marked removals in the local mirror only; the
	// caller performs the actual distributed pruning (Step 5 of Algorithm
	// 9) after the via-B distances are in place, so restore the trees.
	cq.ResetRemovals()
	return B, loadBefore, loadAfter, nil
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
