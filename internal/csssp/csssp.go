// Package csssp implements h-hop Consistent SSSP collections (CSSSP,
// Definition 2.1 / A.3 of the paper, introduced in [1] = Agarwal &
// Ramachandran, IPDPS 2019) and the subtree-removal primitive
// (Algorithm 6, Remove-Subtrees).
//
// Construction follows [1]: compute a 2h-hop SSSP for each source with
// deterministic (dist, hops, parent-id) tie-breaking, then retain the first
// h hops of each tree (Lemma A.4: O(h) rounds per source). The resulting
// collection satisfies the CSSSP containment property exactly: tree T_x
// contains every vertex v that has a path of at most h hops from x with
// weight delta(x, v), and the tree path to such v realizes that distance.
// The cross-tree path-consistency property is verified empirically by
// CheckConsistency (see DESIGN.md for discussion).
package csssp

import (
	"fmt"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// Collection is an h-hop CSSSP collection: one height-<=h tree per source.
// For Mode == bford.Out, tree T_i holds shortest paths FROM Sources[i]
// (parents point toward the root/source). For Mode == bford.In, T_i holds
// shortest paths TO Sources[i] (parents are next hops toward the sink).
type Collection struct {
	G       *graph.Graph
	H       int
	Mode    bford.Mode
	Sources []int

	// Dist[i][v] is the h-hop CSSSP distance between Sources[i] and v
	// (graph.Inf when v is not in T_i).
	Dist [][]int64
	// Label[i][v] is the raw 2h-hop Bellman-Ford distance label between
	// Sources[i] and v: the minimum weight over paths of at most 2h hops.
	// It upper-bounds the true distance, equals it whenever some shortest
	// path has at most 2h hops, and is kept even for nodes outside the
	// truncated tree (Step 7 of Algorithm 1 seeds its extension runs with
	// these values).
	Label [][]int64
	// LabelHops[i][v] is the hop count of the path realizing Label[i][v]
	// (fewest hops among minimum-weight <=2h-hop paths, bford's Hops
	// tie-breaking; -1 when the label is Inf). It is the level at which
	// v's label in tree i's 2h-hop system first reached its final value —
	// the convergence-level metadata the core session's update-damage test
	// needs to judge hop-bounded systems soundly (core/hops.go). No
	// protocol consumes it.
	LabelHops [][]int
	// Depth[i][v] is v's depth in T_i (hop distance to the root), or -1
	// when v is not in T_i.
	Depth [][]int
	// Parent[i][v] is v's parent in T_i (toward the root), -1 for the root
	// and for absent nodes.
	Parent [][]int
	// Removed[i][v] marks nodes pruned by RemoveSubtrees. Removals are
	// subtree-closed: RemoveSubtrees, RemoveSubtreesLocal and
	// ResetRemovals are the only writers, and each keeps every child of a
	// removed node removed. Walk relies on it. A walk, kept or not, holds
	// the tree as it stood when it was taken: only RemoveSubtrees keeps
	// the Walks it is given current, so a caller that removes nodes any
	// other way walks again.
	Removed [][]bool

	hLeaves [][]int32 // depth-H nodes per tree (static), see HLeaves

	// As-built child CSR per tree: chIds[i][chOff[i][v]:chOff[i][v+1]] is
	// the ascending list of v's children in tree i as constructed, ignoring
	// removals (tree shapes never change after Build; only the Removed bits
	// do). Traversals filter the dynamic Removed state, so the collection's
	// thousands of flood/upcast/downcast protocol runs walk this structure
	// instead of re-materializing child lists. See ChildIDs.
	chOff [][]int32
	chIds [][]int32

	// The flat arenas the rows above are carved from, kept so that
	// BuildInto and Refresh rebuild the collection in place.
	dist, label              []int64
	labelHops, depth, parent []int
	removed                  []bool
	chOffFlat, chIdsFlat     []int32
	hlFlat, fill             []int32
}

// Build constructs the h-CSSSP collection for the given sources by running
// a 2h-hop Bellman-Ford per source and truncating each tree to height h
// (the construction of [1]; O(|S|*h) rounds total, Lemma A.4).
//
// The per-source SSSPs are independent protocol executions, so when
// nw.Parallel is set they dispatch across the work-stealing worker pool
// (congest.ShardRuns): each worker owns a clone of nw, pulls source
// indices dynamically, and fills only the per-source slots of the indices
// it ran; the merged statistics — and the collection itself — are
// bit-identical to the sequential schedule regardless of the
// interleaving.
func Build(nw *congest.Network, g *graph.Graph, sources []int, h int, mode bford.Mode) (*Collection, error) {
	c := new(Collection)
	if err := BuildInto(c, nw, g, sources, h, mode); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildInto is Build into c: it overwrites all of c, carving the rows from
// c's arenas where they are large enough, so a caller that rebuilds the
// collection of one graph run after run allocates it once. No row of the
// collection c held before may be read afterwards; after an error c must
// be rebuilt before use.
func BuildInto(c *Collection, nw *congest.Network, g *graph.Graph, sources []int, h int, mode bford.Mode) error {
	if h < 1 {
		return fmt.Errorf("csssp: hop bound must be >= 1, got %d", h)
	}
	ns := len(sources)
	n := g.N
	c.G, c.H, c.Mode = g, h, mode
	c.Sources = append(c.Sources[:0], sources...)
	// Flat backing arenas: one allocation per field instead of one per
	// tree. Rows are capacity-capped views written disjointly by the
	// sharded sub-runs (sub-run i owns exactly the i-th row of each).
	c.dist = congest.Grow(c.dist, ns*n)
	c.label = congest.Grow(c.label, ns*n)
	c.labelHops = congest.Grow(c.labelHops, ns*n)
	c.depth = congest.Grow(c.depth, ns*n)
	c.parent = congest.Grow(c.parent, ns*n)
	c.removed = congest.Grow(c.removed, ns*n)
	c.Dist = carve(c.Dist, c.dist, ns, n)
	c.Label = carve(c.Label, c.label, ns, n)
	c.LabelHops = carve(c.LabelHops, c.labelHops, ns, n)
	c.Depth = carve(c.Depth, c.depth, ns, n)
	c.Parent = carve(c.Parent, c.parent, ns, n)
	c.Removed = carve(c.Removed, c.removed, ns, n)
	err := nw.ShardRuns(ns, func(w *congest.Network, i int) error {
		src := sources[i]
		res, err := bford.Run(w, g, src, 2*h, mode)
		if err != nil {
			return fmt.Errorf("csssp: source %d: %w", src, err)
		}
		c.setRow(i, res)
		return nil
	})
	if err != nil {
		return err
	}
	c.rebuildDerived()
	return nil
}

// setRow writes row i from res, the 2h-hop run of Sources[i]: the labels,
// their hop counts, and the h-truncated tree, in which a confirmed node
// within h hops sits at its label under its confirmed parent and every
// other node is absent. It reports whether a label or the tree changed.
// LabelHops is damage-test metadata, not protocol input, so it is written
// but kept out of the report: a convergence level that moved while every
// consumed array stayed fixed changes nothing any later stage reads.
func (c *Collection) setRow(i int, res *bford.Result) bool {
	copy(c.LabelHops[i], res.Hops)
	label, dist, depth, parent := c.Label[i], c.Dist[i], c.Depth[i], c.Parent[i]
	chg := false
	for v, l := range res.Dist {
		d, dep, par := graph.Inf, -1, -1
		if hv := res.Hops[v]; res.Confirmed[v] && hv >= 0 && hv <= c.H {
			d, dep, par = l, hv, res.Parent[v]
		}
		if label[v] != l || dist[v] != d || depth[v] != dep || parent[v] != par {
			label[v], dist[v], depth[v], parent[v] = l, d, dep, par
			chg = true
		}
	}
	return chg
}

// carve returns rows, resized to ns, pointing at the consecutive
// capacity-capped n-element rows of flat.
func carve[T any](rows [][]T, flat []T, ns, n int) [][]T {
	rows = congest.Grow(rows, ns)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// rebuildDerived materializes the as-built child CSR per tree (two counting
// passes per tree; ascending child order because v ascends) and the static
// depth-H leaf lists, each carved from one flat arena that a rebuild
// reuses. Consumers (the
// blocker construction) read both from sharded workers, so they are built
// eagerly — the lazy HLeaves build is not safe under concurrent first
// touch. Refresh re-runs this whole pass when any tree changed: the flat
// arenas share offsets across trees, so a per-tree patch cannot be done in
// place.
func (c *Collection) rebuildDerived() {
	ns, n, h := len(c.Sources), c.G.N, c.H
	c.chOffFlat = congest.Grow(c.chOffFlat, ns*(n+1))
	c.chOff = carve(c.chOff, c.chOffFlat, ns, n+1)
	chTotal, leafTotal := 0, 0
	for i := 0; i < ns; i++ {
		off := c.chOff[i]
		for v := 0; v < n; v++ {
			if p := c.Parent[i][v]; p >= 0 {
				off[p+1]++
			}
			if c.Depth[i][v] == h {
				leafTotal++
			}
		}
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		chTotal += int(off[n])
	}
	c.chIdsFlat = congest.Grow(c.chIdsFlat, chTotal)
	// A tree without depth-H nodes gets an empty list, never nil: HLeaves
	// would take nil for "not built yet".
	c.hlFlat = congest.Grow(c.hlFlat, leafTotal)
	if c.hlFlat == nil {
		c.hlFlat = []int32{}
	}
	c.chIds = congest.Grow(c.chIds, ns)
	c.hLeaves = congest.Grow(c.hLeaves, ns)
	c.fill = congest.Grow(c.fill, n)
	chBase, hlBase := 0, 0
	for i := 0; i < ns; i++ {
		off := c.chOff[i]
		ids := c.chIdsFlat[chBase : chBase+int(off[n]) : chBase+int(off[n])]
		chBase += int(off[n])
		copy(c.fill, off[:n])
		hl := c.hlFlat[hlBase:hlBase:leafTotal]
		for v := 0; v < n; v++ {
			if p := c.Parent[i][v]; p >= 0 {
				ids[c.fill[p]] = int32(v)
				c.fill[p]++
			}
			if c.Depth[i][v] == h {
				hl = append(hl, int32(v))
			}
		}
		hlBase += len(hl)
		c.chIds[i] = ids
		c.hLeaves[i] = hl
	}
}

// Refresh re-runs the per-source SSSP for the tree indices in dirty (each
// an index into Sources, not a vertex id) and overwrites those rows of
// Label/Dist/Depth/Parent in place, consuming the same per-tree round
// schedule as Build. It reports whether any stored row actually changed;
// when one did, the derived structures (child CSR, depth-H leaf lists) are
// rebuilt so later traversals see the new tree shapes. Removal marks are
// not touched — callers refresh between ResetRemovals boundaries.
//
// The refreshed rows are bit-identical to what a fresh Build on the
// current graph would store for those sources: the per-source SSSP is a
// deterministic fixed point of (graph, source, hop bound), independent of
// which other sources run beside it.
func (c *Collection) Refresh(nw *congest.Network, dirty []int) (bool, error) {
	if len(dirty) == 0 {
		return false, nil
	}
	changed := make([]bool, len(dirty))
	err := nw.ShardRuns(len(dirty), func(w *congest.Network, k int) error {
		i := dirty[k]
		src := c.Sources[i]
		res, err := bford.Run(w, c.G, src, 2*c.H, c.Mode)
		if err != nil {
			return fmt.Errorf("csssp: refresh source %d: %w", src, err)
		}
		changed[k] = c.setRow(i, res)
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, chg := range changed {
		if chg {
			c.rebuildDerived()
			return true, nil
		}
	}
	return false, nil
}

// NumTrees returns the number of trees (sources) in the collection.
func (c *Collection) NumTrees() int { return len(c.Sources) }

// InTree reports whether v currently belongs to tree i (present and not
// removed).
func (c *Collection) InTree(i, v int) bool {
	return c.Depth[i][v] >= 0 && !c.Removed[i][v]
}

// ChildIDs returns the as-built children of v in tree i, ascending,
// ignoring removals (the tree shape is immutable after Build). Traversals
// that must respect the current pruning state filter Removed[i] per child;
// the returned slice aliases the collection's CSR arena and must not be
// modified.
func (c *Collection) ChildIDs(i, v int) []int32 {
	off := c.chOff[i]
	return c.chIds[i][off[v]:off[v+1]]
}

// Children materializes the child lists of tree i, respecting removals. It
// allocates per call; protocol hot paths use ChildIDs plus a Removed check
// instead.
func (c *Collection) Children(i int) [][]int {
	n := c.G.N
	ch := make([][]int, n)
	for v := 0; v < n; v++ {
		if !c.InTree(i, v) {
			continue
		}
		if p := c.Parent[i][v]; p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// PathToRoot returns the tree path from v to the root of tree i, inclusive
// of both endpoints (v first). It returns nil when v is not in the tree.
func (c *Collection) PathToRoot(i, v int) []int {
	if !c.InTree(i, v) {
		return nil
	}
	var path []int
	for u := v; u != -1; u = c.Parent[i][u] {
		path = append(path, u)
		if len(path) > c.G.N {
			panic("csssp: parent cycle")
		}
	}
	return path
}

// HLeaves returns the ids of the nodes at depth exactly H in tree i as
// built, ignoring removals (depths never change after Build, so the list
// is computed once and cached). Scans over "every full-length leaf of
// every tree" — the blocker construction runs thousands of them — iterate
// these lists and test only the dynamic Removed bit, instead of scanning
// all n nodes per tree. The returned slice must not be modified.
func (c *Collection) HLeaves(i int) []int32 {
	if c.hLeaves == nil {
		c.hLeaves = make([][]int32, len(c.Sources))
	}
	if c.hLeaves[i] == nil {
		out := []int32{}
		for v := 0; v < c.G.N; v++ {
			if c.Depth[i][v] == c.H {
				out = append(out, int32(v))
			}
		}
		c.hLeaves[i] = out
	}
	return c.hLeaves[i]
}

// FullLengthLeaves returns the nodes at depth exactly H in tree i (not
// removed): the leaves of the root-to-leaf paths of length H that a blocker
// set must cover (Definition 2.2).
func (c *Collection) FullLengthLeaves(i int) []int {
	var out []int
	for _, v := range c.HLeaves(i) {
		if !c.Removed[i][v] {
			out = append(out, int(v))
		}
	}
	return out
}

// PathVertices returns the hyperedge associated with the full-length path
// of tree i ending at leaf v: the H vertices at depths 1..H (the root is
// excluded so that each hyperedge has exactly H vertices, Section 3.1).
func (c *Collection) PathVertices(i, leaf int) []int {
	path := c.PathToRoot(i, leaf)
	if path == nil || len(path) != c.H+1 {
		return nil
	}
	return path[:c.H] // drop the root (last element)
}

// ResetRemovals restores every tree to its as-built state (all removal
// marks cleared). Algorithms that prune a collection (blocker construction,
// bottleneck elimination) run on the same trees the later steps route on;
// callers reset between the two uses.
func (c *Collection) ResetRemovals() {
	for i := range c.Removed {
		for v := range c.Removed[i] {
			c.Removed[i][v] = false
		}
	}
}

// CheckContainment verifies the CSSSP containment property (Definition
// A.3) against the sequential oracle: for every source x and vertex v, if
// some path from x to v (or v to x, for in-trees) with at most H hops has
// weight delta(x,v), then v must be in T_x at that distance. It returns an
// error describing the first violation.
func (c *Collection) CheckContainment() error {
	g := c.G
	if c.Mode == bford.In {
		g = g.Reverse()
	}
	for i, src := range c.Sources {
		full := graph.Dijkstra(g, src)
		hopb := graph.BellmanFordHops(g, src, c.H)
		for v := 0; v < g.N; v++ {
			if full[v] < graph.Inf && hopb[v] == full[v] {
				if c.Depth[i][v] < 0 {
					return fmt.Errorf("csssp: tree %d (src %d) misses node %d with %d-hop-achievable distance %d", i, src, v, c.H, full[v])
				}
				if c.Dist[i][v] != full[v] {
					return fmt.Errorf("csssp: tree %d (src %d) node %d: dist %d != delta %d", i, src, v, c.Dist[i][v], full[v])
				}
			}
		}
	}
	return nil
}

// CheckConsistency verifies the cross-tree path-consistency property of
// Definition 2.1: for every pair (u, v), the u->v path is identical in
// every tree of the collection in which v appears below u. It reports the
// number of (u, v) pairs inspected and an error on the first mismatch.
func (c *Collection) CheckConsistency() (int, error) {
	n := c.G.N
	checked := 0
	// canonical[u*n+v] is the first-seen u->v tree path, encoded as the
	// parent chain from v up to u.
	canonical := make(map[int][]int)
	for i := range c.Sources {
		for v := 0; v < n; v++ {
			if !c.InTree(i, v) {
				continue
			}
			path := c.PathToRoot(i, v)
			// Every ancestor u at index j defines a u->v subpath path[0..j].
			for j := 1; j < len(path); j++ {
				u := path[j]
				key := u*n + v
				sub := path[:j+1]
				if prev, ok := canonical[key]; ok {
					checked++
					if !equalInts(prev, sub) {
						return checked, fmt.Errorf("csssp: inconsistent %d->%d path between trees", u, v)
					}
				} else {
					canonical[key] = append([]int(nil), sub...)
				}
			}
		}
	}
	return checked, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
