// Package blocker implements the paper's deterministic blocker-set
// construction (Section 3: Algorithms 2-7 and the helper Algorithms 11-12),
// its randomized pairwise-independence variant, and two baselines (the
// greedy construction of Agarwal et al. PODC'18 [2] and random sampling).
//
// A blocker set Q for an h-hop tree collection C is a set of nodes hitting
// every root-to-leaf path of length exactly h in every tree (Definition
// 2.2). The deterministic algorithm runs in O~(|S| * h) rounds
// (Corollary 3.13), removing the n*|Q| term of the earlier greedy
// constructions.
//
// At the default constants delta = eps = 1/12, the derandomized good-set
// search (Algorithm 7, Steps 11-14 of Algorithm 2) is unreachable for
// n < (1+eps)/delta^3 = 1,872. Step 9 commits a single node when the best
// scoreij exceeds delta^3/(1+eps) * |P_ij| = |P_ij|/1,872, and since every
// path of P_ij holds a node of V_i, pigeonhole gives a best scoreij of at
// least |P_ij|/|V_i| >= |P_ij|/n. So below that size every selection step
// commits one node through Step 10; only a larger Params.Delta (the tests
// use 1/2, outside the analysis) reaches the search. The search reads each
// leaf's ancestors, which the charged Ancestors pass delivers, from the
// collection's Parent rows, so no ancestor list is ever built.
package blocker

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// The per-tree protocols of the set cover, the pipelined Ancestors, the
// Compute-Pij downcast and the two Compute-Count upcasts, send what the
// tree dictates, each node by its depth and child count alone, so they are
// charged from the depth histogram of the tree's kept walk
// (csssp.ChargeRun, DESIGN.md §3) instead of simulated. Their outputs are
// the set cover's kept state, which the commits update. The engine
// protocols they replace are the reference (reference.go and
// csssp.UpcastRef); in -tags matcheck builds every charged call runs it on
// a clone and fails on any difference in Stats, stream or the outputs the
// set cover keeps (congest.Charged), and every pass of the upcasts has
// its kept vector recounted node by node (checkCounts).

// treeCall names a per-tree protocol run of the set cover.
type treeCall int

const (
	callAncestors treeCall = iota // Step 1 of Algorithm 7
	callPij                       // Compute-Pij (Algorithm 4) for the betas
	callScore                     // Compute-Count of score(v) ([2])
	callScoreij                   // Compute-Count of scoreij(v) (Step 8)
)

var (
	callRun  = [...]csssp.TreeRun{csssp.Pipeline, csssp.Downcast, csssp.Upcast, csssp.Upcast}
	callOp   = [...]string{"ancestors", "compute-pij", "upcast", "upcast"}
	callName = [...]string{"ancestors", "compute-Pij", "upcast", "upcast"}
)

// chargeTree charges one run of call on tree i from its kept walk, in
// O(H). The run's words are counted in calls[i] and added to WordsByNode
// by flushWords. An interrupted run adds them at once, on w, and so does
// every run when st.eager is set or the matcheck guard compares them.
func (st *state) chargeTree(w *congest.Network, i int, call treeCall) error {
	coll, walk, run := st.coll, st.walks.Tree(i), callRun[call]
	err := w.Charged(callOp[call], func() error {
		done, err := coll.ChargeRun(w, walk, run)
		if err != nil {
			var k csssp.RunCounts
			k[run] = 1
			coll.AddWords(w.Stats.WordsByNode, walk, i, k, done)
			return err
		}
		st.calls[i][run]++
		if st.eager || congest.ChargesChecked {
			st.flushWords(w, i)
		}
		return nil
	}, func(ref *congest.Network) error {
		return st.checkCall(ref, i, call)
	})
	if err != nil {
		return fmt.Errorf("blocker: %s tree %d: %w", callName[call], i, err)
	}
	return nil
}

// flushWords adds the words of the runs counted on tree i to nw's
// WordsByNode. They follow from the tree's shape, so they are added from
// its walk before the walk changes.
func (st *state) flushWords(nw *congest.Network, i int) {
	if k := st.calls[i]; k != (csssp.RunCounts{}) {
		st.coll.AddWords(nw.Stats.WordsByNode, st.walks.Tree(i), i, k, st.h+1)
		st.calls[i] = csssp.RunCounts{}
	}
}

// ancestorsOne is the Ancestors sub-run of tree i: it takes the tree's
// kept walk and charges the pass.
func (st *state) ancestorsOne(w *congest.Network, i int) error {
	st.coll.Walk(st.walks.Tree(i), i)
	return st.chargeTree(w, i, callAncestors)
}

func (st *state) pijOne(w *congest.Network, i int) error {
	return st.chargeTree(w, i, callPij)
}

func (st *state) scoreOne(w *congest.Network, i int) error {
	return st.chargeTree(w, i, callScore)
}

// scoreijOne skips a tree with no P_ij leaf: its upcast would count
// nothing, so the set cover runs none there.
func (st *state) scoreijOne(w *congest.Network, i int) error {
	if st.pijTree[i] == 0 {
		return nil
	}
	return st.chargeTree(w, i, callScoreij)
}

// computePijDowncastInto runs Compute-Pij (Algorithm 4) on its own, for
// the random-sample baseline: a downcast through tree i, whose walk is w,
// accumulating the number of marked (in-Vi) nodes on each root-to-node
// path, root excluded, written into beta (length n) at the nodes of w; the
// rest of beta is left as it is. Compute-Pi (Algorithm 3) is the special
// case "beta >= 1". Cost: H+1 rounds, charged like the set cover's
// downcasts. After an interruption only the nodes reached in completed
// rounds (depth < done) hold their beta.
func computePijDowncastInto(nw *congest.Network, coll *csssp.Collection, i int, w *csssp.TreeWalk, inVi []bool, beta []int64) error {
	err := nw.Charged("compute-pij", func() error {
		depth, parent := coll.Depth[i], coll.Parent[i]
		for k, v := range w.Nodes {
			switch {
			case k == 0:
				beta[v] = 0 // the root is not on its paths' hyperedges
			case inVi[v]:
				beta[v] = beta[parent[v]] + 1
			default:
				beta[v] = beta[parent[v]]
			}
		}
		done, err := coll.ChargeRun(nw, w, csssp.Downcast)
		coll.AddWords(nw.Stats.WordsByNode, w, i, csssp.RunCounts{csssp.Downcast: 1}, done)
		if err != nil {
			for _, v := range w.Descendants() {
				if depth[v] >= done {
					beta[v] = 0
				}
			}
		}
		return err
	}, func(ref *congest.Network) error {
		return checkPij(ref, coll, i, inVi, beta, w.Nodes)
	})
	if err != nil {
		return fmt.Errorf("blocker: compute-Pij tree %d: %w", i, err)
	}
	return nil
}

// ancestorOffsets fills off (length n+1) with the CSR offsets of tree
// depth's ancestor lists, starting at base: a node at depth d has d-1
// proper non-root ancestors, a node outside the tree none. It returns
// off[n].
func ancestorOffsets(depth []int, off []int32, base int32) int32 {
	off[0] = base
	for v, d := range depth {
		off[v+1] = off[v] + int32(max(0, d-1))
	}
	return off[len(depth)]
}
