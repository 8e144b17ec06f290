package core

import (
	"congestapsp/internal/bford"
	"congestapsp/internal/graph"
)

// This file holds the hop-bound half of the damage test (update.go): the
// per-topology BFS depth tables that gate it, and the host-local label-wave
// replay that decides it exactly. The final distance row of a HOP-BOUNDED
// label system is not a sound damage interface on its own: the per-level
// labels L_k (k below the bound) can hold Pareto points — worse distance
// reached in fewer hops — that the collapsed final row hides, and a weight
// change there alters the wave (and everything the protocol derives from
// it: tree shapes, blocker choices, delivery schedules) while leaving the
// final row fixed. See DESIGN.md §10.2.

// hopTables caches, for the session's current communication topology, the
// unweighted BFS depth from every vertex in both arc orientations. Depths
// are weight-free, so weight-only update batches reuse the tables; the
// session drops them when edges appear or vanish. fwd[s*n+x] is the
// minimum arc count of a forward path s->x (-1 when unreachable); rev is
// the same over reversed arcs and aliases fwd on undirected graphs.
type hopTables struct {
	n   int
	fwd []int32
	rev []int32
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

func buildHopTables(g *graph.Graph) *hopTables {
	n := g.N
	ht := &hopTables{n: n}
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
// gate is open the wave replay (wavesDiffer) decides exactly.
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

// waveScratch holds the lockstep replay buffers (two waves x (dist, hops,
// parent) x (current, next)), reused across damage tests so a batch of
// updates allocates nothing after the first.
type waveScratch struct {
	dA, dB, ndA, ndB []int64
	hA, hB, nhA, nhB []int32
	pA, pB, npA, npB []int32
}

func (ws *waveScratch) ensure(n int) {
	if cap(ws.dA) < n {
		ws.dA = make([]int64, n)
		ws.dB = make([]int64, n)
		ws.ndA = make([]int64, n)
		ws.ndB = make([]int64, n)
		i32 := func() []int32 { return make([]int32, n) }
		ws.hA, ws.hB, ws.nhA, ws.nhB = i32(), i32(), i32(), i32()
		ws.pA, ws.pB, ws.npA, ws.npB = i32(), i32(), i32(), i32()
	}
	ws.dA = ws.dA[:n]
	ws.dB = ws.dB[:n]
	ws.ndA = ws.ndA[:n]
	ws.ndB = ws.ndB[:n]
	ws.hA = ws.hA[:n]
	ws.hB = ws.hB[:n]
	ws.nhA = ws.nhA[:n]
	ws.nhB = ws.nhB[:n]
	ws.pA = ws.pA[:n]
	ws.pB = ws.pB[:n]
	ws.npA = ws.npA[:n]
	ws.npB = ws.npB[:n]
}

// waveBetter is bford's deterministic label ordering — (dist, hops,
// parent-id) lexicographic with -1 hops meaning unreachable — over the
// replay's int32 fields. Replicating the exact tie-breaking is what makes
// "waves equal" imply "protocol executions identical".
func waveBetter(d1 int64, h1, p1 int32, d2 int64, h2, p2 int32) bool {
	if d1 != d2 {
		return d1 < d2
	}
	if h2 == -1 {
		return h1 != -1
	}
	if h1 == -1 {
		return false
	}
	if h1 != h2 {
		return h1 < h2
	}
	return p1 < p2
}

// wavesDiffer replays the system's synchronous label wave on the host —
// once with the updated edge at its old weight, once at its new weight, in
// lockstep — and reports whether the FINAL (dist, hops, parent) triples
// diverge. The wave recurrence L_k[v] = better(L_{k-1}[v], min over
// relaxation arcs (u,v) of (L_{k-1}[u]+w, hops+1, u)) is exactly what
// bford's protocol computes level by level, so the replay's finals equal
// the protocol's. Comparing finals only (not intermediate levels) is
// deliberate: consumers read a system's final arrays, its round schedule
// is content-independent, and bford's confirmation wave is a function of
// final labels plus arc weights — whose only changed arc is the updated
// edge, where a confirmation-relevant equality under either weight implies
// the relaxation test already fired (callers run this replay only when it
// did not). Intermediate churn that washes out by convergence therefore
// stays clean, which is what keeps no-op-adjacent updates at zero damage.
// Every edge instance relaxes, so a parallel bundle acts at its minimum
// weight in both waves, as it does in bford's relaxation structure. O(levels
// * m) host work per call, gated by hopGate; both waves stop as soon as
// neither is still changing.
func (ws *waveScratch) wavesDiffer(g *graph.Graph, eIdx int, wOld int64, root, bound int, mode bford.Mode) bool {
	n := g.N
	ws.ensure(n)
	for v := 0; v < n; v++ {
		ws.dA[v], ws.hA[v], ws.pA[v] = graph.Inf, -1, -1
	}
	ws.dA[root], ws.hA[root] = 0, 0
	copy(ws.dB, ws.dA)
	copy(ws.hB, ws.hA)
	copy(ws.pB, ws.pA)
	edges := g.Edges()
	for level := 1; level <= bound; level++ {
		copy(ws.ndA, ws.dA)
		copy(ws.nhA, ws.hA)
		copy(ws.npA, ws.pA)
		copy(ws.ndB, ws.dB)
		copy(ws.nhB, ws.hB)
		copy(ws.npB, ws.pB)
		chgA, chgB := false, false
		relax := func(u, v int, wA, wB int64) {
			if ws.dA[u] < graph.Inf {
				if d, h, p := ws.dA[u]+wA, ws.hA[u]+1, int32(u); waveBetter(d, h, p, ws.ndA[v], ws.nhA[v], ws.npA[v]) {
					ws.ndA[v], ws.nhA[v], ws.npA[v] = d, h, p
					chgA = true
				}
			}
			if ws.dB[u] < graph.Inf {
				if d, h, p := ws.dB[u]+wB, ws.hB[u]+1, int32(u); waveBetter(d, h, p, ws.ndB[v], ws.nhB[v], ws.npB[v]) {
					ws.ndB[v], ws.nhB[v], ws.npB[v] = d, h, p
					chgB = true
				}
			}
		}
		for i := range edges {
			e := &edges[i]
			wA, wB := e.W, e.W
			if i == eIdx {
				wA = wOld
			}
			switch {
			case mode == bford.Out && g.Directed:
				relax(e.U, e.V, wA, wB)
			case mode == bford.In && g.Directed:
				relax(e.V, e.U, wA, wB)
			default:
				relax(e.U, e.V, wA, wB)
				relax(e.V, e.U, wA, wB)
			}
		}
		ws.dA, ws.ndA = ws.ndA, ws.dA
		ws.hA, ws.nhA = ws.nhA, ws.hA
		ws.pA, ws.npA = ws.npA, ws.pA
		ws.dB, ws.ndB = ws.ndB, ws.dB
		ws.hB, ws.nhB = ws.nhB, ws.hB
		ws.pB, ws.npB = ws.npB, ws.pB
		if !chgA && !chgB {
			break // both waves at their fixed point
		}
	}
	for v := 0; v < n; v++ {
		if ws.dA[v] != ws.dB[v] || ws.hA[v] != ws.hB[v] || ws.pA[v] != ws.pB[v] {
			return true
		}
	}
	return false
}
