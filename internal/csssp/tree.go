package csssp

import (
	"fmt"

	"congestapsp/internal/congest"
)

// This file holds the per-tree primitives of the collection: the
// Compute-Count convergecast (UpcastSumInto) and Remove-Subtrees
// (Algorithm 6). Their rounds, deliveries and words follow from the tree,
// the Removed bits and the removal set alone, so they are charged from one
// host pass over the tree instead of simulated (DESIGN.md §3); the engine
// protocols they replace are the reference (reference.go), and in -tags
// matcheck builds every charged call runs it on a clone and fails on any
// difference (congest.Charged).

// TreeWalk is a breadth-first walk of the nodes of one tree that are in it
// now (InTree): Nodes lists them root first, in nondecreasing depth, and
// the children of Nodes[k] are Nodes[Kids[k]:Kids[k+1]]. The per-tree
// primitives read a walk the caller holds: one it takes with Walk, or one
// of a Walks, kept from one removal to the next.
type TreeWalk struct {
	Nodes []int32
	Kids  []int32
}

// Descendants returns the walk's nodes other than the root.
func (w *TreeWalk) Descendants() []int32 {
	return w.Nodes[min(1, len(w.Nodes)):]
}

// Walk fills w with the walk of tree i. It follows the as-built child CSR
// from the root and skips removed children. Removals are subtree-closed,
// since RemoveSubtrees, RemoveSubtreesLocal and ResetRemovals are the only
// writers of Removed, so the walk visits exactly the nodes v with
// InTree(i, v), in O(tree) rather than O(n). It is empty when the root is
// removed.
func (c *Collection) Walk(w *TreeWalk, i int) {
	w.Nodes, w.Kids = w.Nodes[:0], w.Kids[:0]
	root := c.Sources[i]
	if !c.InTree(i, root) {
		return
	}
	off, ids, removed := c.chOff[i], c.chIds[i], c.Removed[i]
	w.Nodes = append(w.Nodes, int32(root))
	w.Kids = append(w.Kids, 1)
	for k := 0; k < len(w.Nodes); k++ {
		v := w.Nodes[k]
		for _, ch := range ids[off[v]:off[v+1]] {
			if !removed[ch] {
				w.Nodes = append(w.Nodes, ch)
			}
		}
		w.Kids = append(w.Kids, int32(len(w.Nodes)))
	}
}

// Walks keeps the walk of every tree of a collection, for a caller that
// runs several per-tree protocols between removals: it walks each tree
// once, and RemoveSubtrees re-walks only the trees that lose nodes. The
// walks are carved from two flat arenas, each with room for its tree as
// built, so filling or refilling one never allocates.
type Walks struct {
	trees       []TreeWalk
	nodes, kids []int32
}

// Reset sizes ws for the trees of c as built and empties every walk. Fill
// tree i's walk with c.Walk(ws.Tree(i), i).
func (ws *Walks) Reset(c *Collection) {
	ns := len(c.Sources)
	total := 0
	for i := 0; i < ns; i++ {
		total += len(c.chIds[i]) + 1 // the root and every child
	}
	ws.trees = congest.Grow(ws.trees, ns)
	ws.nodes = congest.Grow(ws.nodes, total)
	ws.kids = congest.Grow(ws.kids, total+ns)
	off := 0
	for i := 0; i < ns; i++ {
		size := len(c.chIds[i]) + 1
		ws.trees[i] = TreeWalk{
			Nodes: ws.nodes[off : off : off+size],
			Kids:  ws.kids[off+i : off+i : off+i+size+1],
		}
		off += size
	}
}

// Tree returns the kept walk of tree i.
func (ws *Walks) Tree(i int) *TreeWalk { return &ws.trees[i] }

// treeKey keys a network's treeCharge in its scratch registry.
type treeKey struct{}

// treeCharge is a network's pooled host state for the charged primitives
// of this package.
type treeCharge struct {
	leave  []int32 // Remove-Subtrees: per walk position, see removalWalk
	bursts []congest.Burst
	fresh  TreeWalk // Remove-Subtrees' walk of a tree when the caller keeps none

	// RemoveSubtrees' arguments and its per-tree sub-run, bound once so
	// that a warm call hands ShardRuns no new closure.
	c            *Collection
	kept         *Walks
	inZ          []bool
	excludeRoots bool
	removeTree   func(w *congest.Network, i int) error
}

func getTreeCharge(nw *congest.Network) *treeCharge {
	return congest.ScratchState(nw.Scratch(), treeKey{}, func() *treeCharge {
		tc := new(treeCharge)
		tc.removeTree = tc.removeOne
		return tc
	})
}

// UpcastSum runs the Compute-Count convergecast of Algorithm 14
// (generalized): within tree i, each node starts with init[v] and finishes
// with the sum of init over its subtree, itself included; nodes outside the
// tree finish with 0. A node at depth d sends its accumulated sum to its
// parent at round H-d, so the fixed schedule is H+1 rounds per tree
// (Lemma A.18).
func (c *Collection) UpcastSum(nw *congest.Network, i int, init []int64) ([]int64, error) {
	acc := make([]int64, c.G.N)
	var w TreeWalk
	c.Walk(&w, i)
	if err := c.UpcastSumInto(nw, &w, i, init, acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// UpcastSumInto is UpcastSum over w, the walk of tree i, writing the
// per-node sums into acc (length n), so callers that loop over trees (the
// blocker score recomputations run one upcast per tree per commit) reuse
// their own storage and walks. It reads init and writes acc only at the
// nodes of w.
//
// The run is charged from the tree: a node at depth d >= 1 sends one word
// to its parent in round H-d, and the root stays live until round H, so
// the engine would simulate H+1 rounds when the root is in the tree and
// one round otherwise. After an interruption, acc holds what the nodes had
// summed by then: a node at depth d has its children's sums only when they
// arrived in a completed round, that is when d > H - completed.
func (c *Collection) UpcastSumInto(nw *congest.Network, w *TreeWalk, i int, init, acc []int64) error {
	if len(acc) != c.G.N {
		return fmt.Errorf("csssp: upcast tree %d: acc length %d != n %d", i, len(acc), c.G.N)
	}
	tc := getTreeCharge(nw)
	err := nw.Charged("upcast", func() error {
		live := c.upcastPass(tc, w, i, init, acc)
		done, err := nw.ChargeFixed(tc.bursts, live, c.H+1)
		if err != nil {
			for _, v := range w.Nodes {
				if c.Depth[i][v] <= c.H-done {
					acc[v] = init[v]
				}
			}
		}
		return err
	}, func(ref *congest.Network) error {
		return c.checkUpcast(ref, i, init, acc, w.Nodes)
	})
	if err != nil {
		return fmt.Errorf("csssp: upcast tree %d: %w", i, err)
	}
	return nil
}

// upcastPass is the host pass of UpcastSumInto: it sums init up tree i,
// whose walk is w, into acc, leaves the sends in tc.bursts, and returns the
// rounds the run lasts without mail.
func (c *Collection) upcastPass(tc *treeCharge, w *TreeWalk, i int, init, acc []int64) (live int) {
	c.UpcastSumLocal(w, i, init, acc)
	h, depth := c.H, c.Depth[i]
	b := tc.bursts[:0]
	for _, v := range w.Descendants() {
		r := int32(h - depth[v])
		b = append(b, congest.Burst{V: v, First: r, Last: r, Words: 1})
	}
	tc.bursts = b
	if len(w.Nodes) == 0 {
		return 1
	}
	return h + 1
}

// UpcastSumLocal is the host convergecast behind UpcastSumInto, with no
// network and no rounds: acc[v] becomes the sum of init over v's subtree
// for every node v of w, the walk of tree i, and the rest of acc is left
// as it is.
func (c *Collection) UpcastSumLocal(w *TreeWalk, i int, init, acc []int64) {
	for _, v := range w.Nodes {
		acc[v] = init[v]
	}
	parent := c.Parent[i]
	for k := len(w.Nodes) - 1; k > 0; k-- {
		v := w.Nodes[k]
		acc[parent[v]] += acc[v]
	}
}

// RemoveSubtrees implements Algorithm 6 (Remove-Subtrees): for each source
// in sequence, every node z with inZ[z] floods a removal notice down its
// subtree in T_i; all reached nodes leave the tree. Cost: H+1 rounds per
// source (Lemma 3.7).
//
// excludeRoots controls what happens when z is the root of a tree. The
// blocker algorithm must skip roots (hyperedges exclude the root, so a
// blocker node covers none of its own tree's paths and that tree must stay
// coverable); the bottleneck elimination of Algorithm 9 removes the whole
// tree (messages destined to that root are already handled via z).
//
// Each flood is charged from its tree (see removalWalk). kept, when not
// nil, holds the current walk of every tree: each flood reads its tree's
// kept walk, and a tree that loses nodes is walked again, so kept stays
// current. With kept nil each flood walks its tree first. The floods are
// independent (tree i's reads and writes only Removed[i] and its kept
// walk), so they dispatch across the work-stealing worker clones when
// nw.Parallel is set; the merged stats are exact commutative sums, so they
// match the sequential schedule bit for bit. Removed[i] is written only
// when tree i's flood succeeds.
func (c *Collection) RemoveSubtrees(nw *congest.Network, kept *Walks, inZ []bool, excludeRoots bool) error {
	tc := getTreeCharge(nw)
	tc.c, tc.kept, tc.inZ, tc.excludeRoots = c, kept, inZ, excludeRoots
	err := nw.ShardRuns(len(c.Sources), tc.removeTree)
	tc.c, tc.kept, tc.inZ = nil, nil, nil
	return err
}

// removeOne is RemoveSubtrees' sub-run for tree i on w, with the arguments
// of the call that tc belongs to.
func (tc *treeCharge) removeOne(w *congest.Network, i int) error {
	c, inZ, excludeRoots := tc.c, tc.inZ, tc.excludeRoots
	wc := getTreeCharge(w)
	walk := &wc.fresh
	if tc.kept != nil {
		walk = tc.kept.Tree(i)
	} else {
		c.Walk(walk, i)
	}
	err := w.Charged("remove-subtrees", func() error {
		leave := c.removalWalk(wc, walk, i, inZ, excludeRoots)
		nodes, kids := walk.Nodes, walk.Kids
		b := wc.bursts[:0]
		for k, g := range leave {
			if sent := kids[k+1] - kids[k]; g >= 0 && sent > 0 {
				b = append(b, congest.Burst{V: nodes[k], First: g, Last: g, Words: sent})
			}
		}
		wc.bursts = b
		_, err := w.ChargeFixed(b, 1, c.H+1)
		return err
	}, func(ref *congest.Network) error {
		return c.checkRemove(ref, i, inZ, excludeRoots, walk, wc.leave)
	})
	if err != nil {
		return fmt.Errorf("csssp: remove-subtrees tree %d: %w", i, err)
	}
	if c.applyRemoval(i, walk, wc.leave) && tc.kept != nil {
		c.Walk(walk, i)
	}
	return nil
}

// removalWalk computes Remove-Subtrees on tree i, whose walk is w, on the
// host. It returns, in tc.leave, per walk position k the round in which
// Nodes[k] leaves the tree, or -1 when it stays: 0 for an eligible z (in
// inZ, and not the root when excludeRoots is set), else its parent's round
// plus 1. A node that leaves sends the notice to each of its children in
// the round it leaves, so the engine would simulate the last such round
// plus 2 rounds, or 1 when nothing is sent.
func (c *Collection) removalWalk(tc *treeCharge, w *TreeWalk, i int, inZ []bool, excludeRoots bool) []int32 {
	root := int32(c.Sources[i])
	leave := tc.leave[:0]
	for _, v := range w.Nodes {
		g := int32(-1)
		if inZ[v] && !(excludeRoots && v == root) {
			g = 0
		}
		leave = append(leave, g)
	}
	for k, g := range leave {
		if g < 0 {
			continue
		}
		for j := w.Kids[k]; j < w.Kids[k+1]; j++ {
			if leave[j] < 0 {
				leave[j] = g + 1
			}
		}
	}
	tc.leave = leave
	return leave
}

// applyRemoval marks the nodes of walk w that leave (leave[k] >= 0) as
// removed from tree i and reports whether any did.
func (c *Collection) applyRemoval(i int, w *TreeWalk, leave []int32) bool {
	any := false
	for k, g := range leave {
		if g >= 0 {
			c.Removed[i][w.Nodes[k]] = true
			any = true
		}
	}
	return any
}

// RemoveSubtreesLocal applies the effect of Algorithm 6 without consuming
// network rounds, through the same host walk as RemoveSubtrees. It exists
// for baseline algorithms whose papers give a cheaper distributed
// implementation than re-flooding every tree (the caller charges the
// appropriate rounds separately; see blocker.Greedy).
func (c *Collection) RemoveSubtreesLocal(inZ []bool, excludeRoots bool) {
	var tc treeCharge
	for i := range c.Sources {
		c.Walk(&tc.fresh, i)
		c.applyRemoval(i, &tc.fresh, c.removalWalk(&tc, &tc.fresh, i, inZ, excludeRoots))
	}
}
