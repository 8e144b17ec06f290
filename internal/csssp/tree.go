package csssp

import (
	"fmt"
	"slices"

	"congestapsp/internal/congest"
)

// This file holds the per-tree primitives of the collection: the
// Compute-Count convergecast (UpcastSumInto), the charge of every per-tree
// run whose sends follow from depths alone (ChargeRun, AddWords) and
// Remove-Subtrees (Algorithm 6). Their rounds, deliveries and words follow
// from the tree, the Removed bits and the removal set alone, so they are
// charged from the tree's walk instead of simulated (DESIGN.md §3); the
// engine protocols they replace are the reference (reference.go), and in
// -tags matcheck builds every charged call runs it on a clone and fails on
// any difference (congest.Charged).

// TreeWalk is a breadth-first walk of the nodes of one tree that are in it
// now (InTree): Nodes lists them root first, in nondecreasing depth, and
// the children of Nodes[k] are Nodes[Kids[k]:Kids[k+1]]. Hist is its depth
// histogram: Hist[d] nodes sit at depth d, for d = 0..H. The per-tree
// primitives read a walk the caller holds: one it takes with Walk, or one
// of a Walks, kept from one removal to the next.
type TreeWalk struct {
	Nodes []int32
	Kids  []int32
	Hist  []int32
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
	w.Hist = congest.Grow(w.Hist, c.H+1)
	root := c.Sources[i]
	if !c.InTree(i, root) {
		return
	}
	off, ids, removed, depth := c.chOff[i], c.chIds[i], c.Removed[i], c.Depth[i]
	w.Nodes = append(w.Nodes, int32(root))
	w.Kids = append(w.Kids, 1)
	w.Hist[0] = 1
	for k := 0; k < len(w.Nodes); k++ {
		v := w.Nodes[k]
		for _, ch := range ids[off[v]:off[v+1]] {
			if !removed[ch] {
				w.Nodes = append(w.Nodes, ch)
				w.Hist[depth[ch]]++
			}
		}
		w.Kids = append(w.Kids, int32(len(w.Nodes)))
	}
}

// Walks keeps the walk of every tree of a collection, for a caller that
// runs several per-tree protocols between removals: it walks each tree
// once, and RemoveSubtrees drops the nodes each tree loses. The
// walks are carved from three flat arenas, each with room for its tree as
// built, so filling or refilling one never allocates.
type Walks struct {
	trees             []TreeWalk
	nodes, kids, hist []int32
}

// Reset sizes ws for the trees of c as built and empties every walk. Fill
// tree i's walk with c.Walk(ws.Tree(i), i).
func (ws *Walks) Reset(c *Collection) {
	ns := len(c.Sources)
	total := 0
	for i := 0; i < ns; i++ {
		total += len(c.chIds[i]) + 1 // the root and every child
	}
	levels := c.H + 1
	ws.trees = congest.Grow(ws.trees, ns)
	ws.nodes = congest.Grow(ws.nodes, total)
	ws.kids = congest.Grow(ws.kids, total+ns)
	ws.hist = congest.Grow(ws.hist, ns*levels)
	off := 0
	for i := 0; i < ns; i++ {
		size := len(c.chIds[i]) + 1
		ws.trees[i] = TreeWalk{
			Nodes: ws.nodes[off : off : off+size],
			Kids:  ws.kids[off+i : off+i : off+i+size+1],
			Hist:  ws.hist[i*levels : (i+1)*levels : (i+1)*levels],
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
	pos    []int32 // drop's scratch
	bursts []congest.Burst
	fresh  TreeWalk // Remove-Subtrees' walk of a tree when the caller keeps none

	// RemoveSubtrees' network and arguments and its per-tree sub-run,
	// bound once so that a warm call hands ShardRuns no new closure. zs
	// lists the members of inZ.
	nw           *congest.Network
	c            *Collection
	kept         *Walks
	inZ          []bool
	zs           []int32
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
	err := nw.Charged("upcast", func() error {
		c.UpcastSumLocal(w, i, init, acc)
		done, err := c.ChargeRun(nw, w, Upcast)
		c.AddWords(nw.Stats.WordsByNode, w, i, RunCounts{Upcast: 1}, done)
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

// TreeRun is a per-tree protocol in which what a node sends, and when,
// follows from its depth and its number of children alone. So the round
// stream of a run follows from the tree's depth histogram, and the words
// each node adds from the tree's shape (DESIGN.md §3). Every run has a
// budget of H+1 rounds and sends nothing in round H.
type TreeRun int

const (
	// Upcast is Compute-Count (UpcastSumInto): a node at depth d >= 1 sends
	// one word to its parent in round H-d, and the root stays live until
	// round H.
	Upcast TreeRun = iota
	// Downcast sends one value down the tree (the blocker's Compute-Pij):
	// a node at depth d sends one word to each child in round d.
	Downcast
	// Pipeline is the pipelined Ancestors of the blocker: a non-root node
	// at depth d sends one word to each child in each of rounds 0..d-1.
	Pipeline
)

// RunCounts counts the runs of each TreeRun on one tree.
type RunCounts [3]int64

// ChargeRun charges one run of r on a tree whose walk is w from w's depth
// histogram, in O(H): its Rounds, Messages, Words and OnRound stream, but
// not its WordsByNode, which AddWords adds. It returns what
// congest.ChargeRun returns. The caller checks the run against its
// reference protocol under congest.Charged.
func (c *Collection) ChargeRun(nw *congest.Network, w *TreeWalk, r TreeRun) (int, error) {
	h, hist := c.H, w.Hist
	deep := 0 // the deepest level of the walk
	for d := h; d > 0; d-- {
		if hist[d] > 0 {
			deep = d
			break
		}
	}
	level := func(d int) int64 {
		if d > h {
			return 0
		}
		return int64(hist[d])
	}
	switch r {
	case Upcast:
		// Round r carries the sends of depth H-r. The root sends nothing
		// but stays live until round H; an empty tree stops after round 0.
		rounds := 1
		if len(w.Nodes) > 0 {
			rounds = h + 1
		}
		return nw.ChargeRun(rounds, h+1, func(r int) int64 {
			if r == h {
				return 0
			}
			return level(h - r)
		})
	case Downcast:
		// Round r reaches depth r+1; the run ends with the round in which
		// the deepest level receives.
		return nw.ChargeRun(deep+1, h+1, func(r int) int64 { return level(r + 1) })
	default:
		// Pipeline: round r reaches every depth from max(2, r+2) down, and
		// the run ends with the round in which the deepest level receives
		// its last id.
		below := int64(0)
		for d := 2; d <= deep; d++ {
			below += level(d)
		}
		return nw.ChargeRun(max(1, deep), h+1, func(r int) int64 {
			sent := below
			below -= level(r + 2)
			return sent
		})
	}
}

// AddWords adds to words, a Stats.WordsByNode, what k[r] runs of each
// TreeRun r on tree i, whose walk is w, add per node when each completes
// done rounds (H+1 for a finished run): one word per non-root node for an
// Upcast, one per child for a Downcast, depth times one per child for a
// Pipeline, less what rounds done and later would have sent.
func (c *Collection) AddWords(words []int64, w *TreeWalk, i int, k RunCounts, done int) {
	h, depth := c.H, c.Depth[i]
	for j, v := range w.Nodes {
		d, kids := depth[v], int64(w.Kids[j+1]-w.Kids[j])
		var add int64
		if d >= 1 && h-d < done {
			add += k[Upcast]
		}
		if d < done {
			add += k[Downcast] * kids
		}
		if d >= 1 {
			add += k[Pipeline] * kids * int64(min(d, done))
		}
		words[v] += add
	}
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
// Each flood is charged from its tree (see removalWalk); a tree that holds
// no eligible member of Z sends nothing and is charged without a walk.
// kept, when not nil, holds the current walk of every tree: each flood
// reads its tree's kept walk, and a tree that loses nodes drops them from
// it, so kept stays current. With kept nil each flood walks its tree
// first. The floods are independent (tree i's reads and writes only
// Removed[i] and its kept walk), so they dispatch across the work-stealing worker clones when
// nw.Parallel is set; the merged stats are exact commutative sums, so they
// match the sequential schedule bit for bit. Removed[i] is written only
// when tree i's flood succeeds.
func (c *Collection) RemoveSubtrees(nw *congest.Network, kept *Walks, inZ []bool, excludeRoots bool) error {
	tc := getTreeCharge(nw)
	tc.nw, tc.c, tc.kept, tc.inZ, tc.excludeRoots = nw, c, kept, inZ, excludeRoots
	tc.zs = tc.zs[:0]
	for v, in := range inZ {
		if in {
			tc.zs = append(tc.zs, int32(v))
		}
	}
	err := nw.ShardRuns(len(c.Sources), tc.removeTree)
	tc.nw, tc.c, tc.kept, tc.inZ = nil, nil, nil, nil
	return err
}

// removeOne is RemoveSubtrees' sub-run for tree i on w, with the arguments
// of the call that tc belongs to.
func (tc *treeCharge) removeOne(w *congest.Network, i int) error {
	c, inZ, excludeRoots := tc.c, tc.inZ, tc.excludeRoots
	wc := tc // a sequential sub-run runs on the call's own network
	if w != tc.nw {
		wc = getTreeCharge(w)
	}
	walk := &wc.fresh
	hit := slices.ContainsFunc(tc.zs, func(z int32) bool {
		return c.InTree(i, int(z)) && !(excludeRoots && int(z) == c.Sources[i])
	})
	switch {
	case !hit:
		walk.Nodes, walk.Kids = walk.Nodes[:0], walk.Kids[:0]
	case tc.kept != nil:
		walk = tc.kept.Tree(i)
	default:
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
		walk.drop(wc.leave, c.Depth[i], &wc.pos)
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

// drop takes out of w the nodes at the positions k with leave[k] >= 0,
// whole subtrees, as a fresh Walk would after their removal: the other
// nodes keep their order, each keeps its remaining children, and the
// histogram loses the depths (from depth, the tree's Depth row) of those
// that leave. pos is scratch.
func (w *TreeWalk) drop(leave []int32, depth []int, pos *[]int32) {
	// p[k] counts the nodes that stay before position k.
	p, kept := (*pos)[:0], int32(0)
	for k, g := range leave {
		p = append(p, kept)
		if g < 0 {
			kept++
		} else {
			w.Hist[depth[w.Nodes[k]]]--
		}
	}
	p = append(p, kept)
	*pos = p
	// A node that stays has its staying children at the same positions
	// among the staying nodes, so its child range maps through p.
	j := 0
	for k, g := range leave {
		if g < 0 {
			w.Nodes[j], w.Kids[j] = w.Nodes[k], p[w.Kids[k]]
			j++
		}
	}
	w.Nodes, w.Kids = w.Nodes[:j], w.Kids[:0]
	if j > 0 {
		w.Kids = append(w.Kids[:j], int32(j))
	}
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
