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
// use 1/2, outside the analysis) reaches the search.
package blocker

import (
	"fmt"

	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// The per-tree protocols of this file, the pipelined Ancestors and the
// Compute-Pij downcast, send what the tree, the Removed bits and the
// parent's value dictate, so they are charged from one host walk of the
// tree instead of simulated (DESIGN.md §3). The engine protocols they
// replace are the reference (reference.go); in -tags matcheck builds every
// charged call runs it on a clone and fails on any difference
// (congest.Charged).

// treeKey keys a network's treeCharge in its scratch registry.
type treeKey struct{}

// treeCharge is a network's pooled host state for the per-tree protocols
// of this package: the charged runs' sends and the set cover's upcast
// input.
type treeCharge struct {
	bursts []congest.Burst
	init   []int64
}

func getTreeCharge(nw *congest.Network) *treeCharge {
	return congest.ScratchState(nw.Scratch(), treeKey{}, func() *treeCharge { return new(treeCharge) })
}

// upcastInit returns the network's pooled upcast input, length n, with 0
// at the nodes of walk w. Its other entries hold what earlier trees left:
// an upcast reads its input only at the nodes of its tree.
func (tc *treeCharge) upcastInit(n int, w *csssp.TreeWalk) []int64 {
	if len(tc.init) != n {
		tc.init = make([]int64, n)
	}
	for _, v := range w.Nodes {
		tc.init[v] = 0
	}
	return tc.init
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

// collectAncestors runs the pipelined Ancestors protocol of [2] (Step 1 of
// Algorithm 7) on tree i: every node learns the ids of its proper ancestors
// up to but excluding the root, nearest-first, into ids[off[v]:off[v+1]]
// (offsets from ancestorOffsets). Only the rows of tree i's nodes are
// written. Cost: H+1 rounds. It walks tree i into w, which the set cover
// keeps for the rest of its run.
//
// The run is charged from the tree: each non-root node sends its own id to
// its children in round 0 and forwards the ids it receives, one per round
// and FIFO, so a node at depth d receives its d-1 ids in rounds 1..d-1 and
// sends in rounds 0..d-1. After an interruption a node holds the ids of the
// completed rounds and zeros after them.
func collectAncestors(nw *congest.Network, coll *csssp.Collection, i int, w *csssp.TreeWalk, off, ids []int32) error {
	tc := getTreeCharge(nw)
	err := nw.Charged("ancestors", func() error {
		coll.Walk(w, i)
		depth, parent := coll.Depth[i], coll.Parent[i]
		b := tc.bursts[:0]
		for k, v := range w.Nodes {
			d := depth[v]
			if d >= 2 {
				p := parent[v]
				row := ids[off[v]:off[v+1]]
				row[0] = int32(p)
				copy(row[1:], ids[off[p]:off[p+1]])
			}
			if sent := w.Kids[k+1] - w.Kids[k]; k > 0 && sent > 0 {
				b = append(b, congest.Burst{V: v, First: 0, Last: int32(d - 1), Words: sent})
			}
		}
		tc.bursts = b
		done, err := nw.ChargeFixed(b, 1, coll.H+1)
		if err != nil {
			for _, v := range w.Nodes {
				if got := off[v] + int32(max(0, done-1)); got < off[v+1] {
					clear(ids[got:off[v+1]])
				}
			}
		}
		return err
	}, func(ref *congest.Network) error {
		return checkAncestors(ref, coll, i, off, ids, w.Nodes)
	})
	if err != nil {
		return fmt.Errorf("blocker: ancestors tree %d: %w", i, err)
	}
	return nil
}

// computePijDowncastInto runs Compute-Pij (Algorithm 4): a downcast through
// tree i, whose walk is w, accumulating the number of marked (in-Vi) nodes
// on each root-to-node path, root excluded, written into beta (length n)
// at the nodes of w; the rest of beta is left as it is. Compute-Pi
// (Algorithm 3) is the special case "beta >= 1". Cost: H+1 rounds.
//
// The run is charged from the tree: the root sends 0 to its children in
// round 0, and a node at depth d receives its parent's value in round d and
// sends its own to its children in the same round, so the engine would
// simulate one round more than the deepest depth reached. After an
// interruption only the nodes reached in completed rounds hold their beta.
func computePijDowncastInto(nw *congest.Network, coll *csssp.Collection, i int, w *csssp.TreeWalk, inVi []bool, beta []int64) error {
	tc := getTreeCharge(nw)
	err := nw.Charged("compute-pij", func() error {
		depth, parent := coll.Depth[i], coll.Parent[i]
		b := tc.bursts[:0]
		for k, v := range w.Nodes {
			switch {
			case k == 0:
				beta[v] = 0 // the root is not on its paths' hyperedges
			case inVi[v]:
				beta[v] = beta[parent[v]] + 1
			default:
				beta[v] = beta[parent[v]]
			}
			if sent := w.Kids[k+1] - w.Kids[k]; sent > 0 {
				r := int32(depth[v])
				b = append(b, congest.Burst{V: v, First: r, Last: r, Words: sent})
			}
		}
		tc.bursts = b
		done, err := nw.ChargeFixed(b, 1, coll.H+1)
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
