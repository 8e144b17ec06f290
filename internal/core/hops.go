package core

import (
	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// This file holds the hop-bound half of the damage test (update.go): the
// per-topology BFS depth tables that gate it, and the replay that decides
// it exactly by re-running the system with bford's own relaxation. The
// final distance row of a HOP-BOUNDED label system is not a sound damage
// interface on its own: the per-level labels L_k (k below the bound) can
// hold Pareto points — worse distance reached in fewer hops — that the
// collapsed final row hides, and a weight change there can move the final
// labels, and everything the protocol derives from them (tree shapes,
// blocker choices, delivery schedules), although no relaxation through the
// updated edge ties or improves the captured row. See DESIGN.md §10.2.

// hopTables caches, for the session's current communication topology, the
// unweighted BFS depth from every vertex in both arc orientations, and the
// network the replay runs on. Depths are weight-free, so weight-only
// update batches reuse the tables; the session drops them when edges
// appear or vanish, and the replay network with them, since it shares the
// CSR arrays that SyncTopology replaces. fwd[s*n+x] is the minimum arc
// count of a forward path s->x (-1 when unreachable); rev is the same over
// reversed arcs and aliases fwd on undirected graphs.
type hopTables struct {
	n   int
	fwd []int32
	rev []int32
	// replay is a private clone of the session's network: no OnRound hook,
	// fault injector or context, and its counters are never read.
	replay *congest.Network
}

// row returns the depth row a label system rooted at root relaxes under:
// Out systems grow along forward arcs from the root, In systems along
// reversed arcs (their chains run x -> ... -> root).
func (ht *hopTables) row(mode bford.Mode, root int) []int32 {
	if mode == bford.In {
		return ht.rev[root*ht.n : (root+1)*ht.n]
	}
	return ht.fwd[root*ht.n : (root+1)*ht.n]
}

func buildHopTables(nw *congest.Network) *hopTables {
	g := nw.G
	n := g.N
	ht := &hopTables{n: n, replay: nw.Clone()}
	off, dst := adjacencyCSR(g, false)
	ht.fwd = bfsAllSources(n, off, dst)
	if g.Directed {
		off, dst = adjacencyCSR(g, true)
		ht.rev = bfsAllSources(n, off, dst)
	} else {
		ht.rev = ht.fwd
	}
	return ht
}

// adjacencyCSR builds an unweighted CSR over the graph's arcs; reversed
// flips every arc (undirected graphs are symmetric either way).
func adjacencyCSR(g *graph.Graph, reversed bool) (off, dst []int32) {
	n := g.N
	off = make([]int32, n+1)
	edges := g.Edges()
	arcs := len(edges)
	if !g.Directed {
		arcs *= 2
	}
	dst = make([]int32, arcs)
	count := func(u, v int) { off[u+1]++ }
	for _, e := range edges {
		u, v := e.U, e.V
		if reversed {
			u, v = v, u
		}
		count(u, v)
		if !g.Directed {
			count(v, u)
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	fill := make([]int32, n)
	copy(fill, off[:n])
	put := func(u, v int) { dst[fill[u]] = int32(v); fill[u]++ }
	for _, e := range edges {
		u, v := e.U, e.V
		if reversed {
			u, v = v, u
		}
		put(u, v)
		if !g.Directed {
			put(v, u)
		}
	}
	return off, dst
}

// bfsAllSources runs one BFS per source over the CSR and returns the flat
// n x n depth table (-1 for unreachable). O(n * (n + arcs)) host work,
// paid once per topology per session.
func bfsAllSources(n int, off, dst []int32) []int32 {
	depth := make([]int32, n*n)
	for i := range depth {
		depth[i] = -1
	}
	queue := make([]int32, n)
	for s := 0; s < n; s++ {
		row := depth[s*n : (s+1)*n]
		row[s] = 0
		queue[0] = int32(s)
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			d := row[u] + 1
			for _, v := range dst[off[u]:off[u+1]] {
				if row[v] < 0 {
					row[v] = d
					queue[tail] = v
					tail++
				}
			}
		}
	}
	return depth
}

// hopGate is the cheap prefilter for a hop-bounded system: a candidate
// routed through the updated edge (u,v) can land strictly below the head's
// convergence level only if F[u]+1 < C[v] — F the BFS depth from the
// system's root in relaxation orientation (the earliest level any chain
// reaches u), C the level the head's label first hit its final value
// (bford Hops at capture; -1 for unreachable heads, whose changes the
// relaxation test already catches). Candidates landing at or above C[v]
// compare against the final value and are judged soundly by arcDamages,
// because every level's label lower-bounds at its final value. When the
// gate is open the replay (replayDiffers) decides exactly.
func hopGate(C []int, F []int32, u, v int, directed bool, mode bford.Mode) bool {
	if mode == bford.In {
		u, v = v, u
	}
	if F[u] >= 0 && C[v] > int(F[u])+1 {
		return true
	}
	if !directed && F[v] >= 0 && C[u] > int(F[v])+1 {
		return true
	}
	return false
}

// replayDiffers re-runs a hop-bounded label system (root, bound, mode) with
// bford's relaxation on the session's current graph and reports whether its
// final labels differ from the captured rows: distances D and hop counts C.
// The final (dist, hops) labels are the lexicographic minimum over walks of
// at most bound hops, a function of the graph alone, so equal rows mean the
// system's fixed point did not move. Relaxation parents are not compared:
// no consumer reads them, and a tree's confirmed parents are rewritten from
// the final labels and arc weights, which differ only at the updated edge,
// where arcDamages has already ruled out a composing relaxation under
// either weight (DESIGN.md §10.2). A run that fails leaves the system
// unjudged, so it counts as dirty.
func (ht *hopTables) replayDiffers(D []int64, C []int, root, bound int, mode bford.Mode) bool {
	res, err := bford.RunLabels(ht.replay, ht.replay.G, root, bound, mode)
	if err != nil {
		return true
	}
	for v, d := range D {
		if res.Dist[v] != d || res.Hops[v] != C[v] {
			return true
		}
	}
	return false
}
