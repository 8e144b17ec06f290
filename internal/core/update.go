package core

import (
	"fmt"

	"congestapsp/internal/bford"
	"congestapsp/internal/graph"
)

// This file is the session's first-class update path: ApplyUpdates patches
// the pinned graph in place (the inversion of the old "the graph must not
// be modified" guard), maintains the session's content digest
// incrementally, and — when a result snapshot is armed — computes which of
// the snapshot's tracked label systems an update can possibly invalidate.
// The next Run consumes that damage report to re-run only the damaged
// work; see snapshot.go and DESIGN.md §10.

// UpdateOp selects what an EdgeUpdate does.
type UpdateOp int

const (
	// SetWeight changes the weight of the first existing U-V edge (either
	// orientation for undirected graphs). Weight-only updates keep the
	// communication topology, so they are the cheap, incrementally
	// re-runnable case.
	SetWeight UpdateOp = iota
	// InsertEdge adds a new U->V edge of weight W. Topology changes force
	// the next run to recompute from scratch (FellBack).
	InsertEdge
	// DeleteEdge removes the first existing U-V edge. Topology change;
	// same fallback as InsertEdge.
	DeleteEdge
)

// String names the operation as it appears in update streams and errors.
func (op UpdateOp) String() string {
	switch op {
	case SetWeight:
		return "set-weight"
	case InsertEdge:
		return "insert"
	default:
		return "delete"
	}
}

// EdgeUpdate is one graph mutation. U and V identify the edge by its
// endpoints; W is the new weight (ignored for DeleteEdge).
type EdgeUpdate struct {
	Op   UpdateOp
	U, V int
	W    int64
}

// UpdateStats reports, after a batch of updates, how much of the armed
// result snapshot survives. The session tracks 2n + |Q| per-source label
// systems (the Step-1 out-trees, the Step-3 in-systems, and the Step-7
// extension rows); Recomputed counts the systems the accumulated damage
// forces the next run to re-execute, Reused the rest. FellBack reports
// that the next run will recompute everything: topology changed, no
// snapshot was armed, or the adaptive threshold judged the damage too
// broad for the incremental path to pay off.
type UpdateStats struct {
	Reused     int
	Recomputed int
	FellBack   bool
}

// UpdateError tags a failed update with its zero-based batch index, so
// callers that coalesce many logical batches into one ApplyUpdates call
// (the serve batcher) can split the blame: updates before Index applied,
// Index failed, everything after was never attempted.
type UpdateError struct {
	Index int
	Err   error
}

func (e *UpdateError) Error() string { return fmt.Sprintf("core: update %d: %v", e.Index, e.Err) }
func (e *UpdateError) Unwrap() error { return e.Err }

// ApplyUpdates applies the batch to the session's graph, in order,
// re-arming the session so the next Run reflects the mutated graph. The
// session — not the old checksum guard — is now the sanctioned mutation
// path: weight changes patch the graph in place and keep the warm network
// untouched (link topology and CSR arenas are weight-free), while
// insert/delete rebuild the communication topology and propagate it to the
// cached worker-clone fleet.
//
// On error the batch stops at the failing update; earlier updates remain
// applied and the session stays consistent with the partially-mutated
// graph (the returned UpdateStats describes that state). Updates with
// W == the current weight are accepted and ignored.
//
// The next Run after ApplyUpdates is bit-identical in results (Dist,
// LastHop), round counts, |Q| and h to a cold run on the mutated graph;
// when it can reuse snapshot state it may skip simulating work whose
// outcome is already known, so message/word counters can legitimately
// differ from a cold run's.
func (s *Session) ApplyUpdates(ups []EdgeUpdate) (UpdateStats, error) {
	if s.g.Version() != s.knownVersion {
		return s.updateStats(), fmt.Errorf("core: graph modified outside ApplyUpdates since the session was created or last updated")
	}
	topo := false
	mutated := false
	// finalize re-arms the session for whatever prefix of the batch was
	// applied, so an error mid-batch still leaves a runnable session.
	finalize := func() error {
		var err error
		if topo {
			err = s.nw.SyncTopology()
			s.digest = graphDigest(s.g)
			s.snap.fellBack = true
			s.hops = nil // the BFS depth tables and the replay network are topology-keyed
		}
		if mutated {
			s.pendingUpdates = true
		}
		s.knownVersion = s.g.Version()
		return err
	}
	for i, up := range ups {
		idx, prev, err := ApplyUpdate(s.g, up)
		if err != nil {
			ferr := finalize()
			return s.updateStats(), firstErr(&UpdateError{i, err}, ferr)
		}
		switch up.Op {
		case SetWeight:
			if prev.W == up.W {
				continue
			}
			mutated = true
			s.digest += edgeTerm(idx, prev.U, prev.V, up.W) - edgeTerm(idx, prev.U, prev.V, prev.W)
			if s.snap.valid && !s.snap.fellBack && !topo {
				s.damage(up.U, up.V, prev.W, up.W)
			}
		case InsertEdge:
			mutated, topo = true, true
			e := s.g.Edges()[idx]
			s.digest += edgeTerm(idx, e.U, e.V, e.W)
		default:
			// A delete shifts later edge indices; the digest is rebuilt
			// wholesale in finalize (topology changes fall back to a cold
			// run anyway).
			mutated, topo = true, true
		}
	}
	if err := finalize(); err != nil {
		return s.updateStats(), err
	}
	s.snap.adaptiveFallback()
	return s.updateStats(), nil
}

// ApplyUpdate mutates g by one update with the edge addressing every
// update path shares: SetWeight and DeleteEdge act on the first U-V edge
// FindEdge returns (either orientation on undirected graphs), a SetWeight
// to the current weight is a no-op, and InsertEdge appends. It returns the
// index of the edge the update addressed (the new index for InsertEdge)
// and that edge as it was before the update (zero for InsertEdge).
// Session.ApplyUpdates wraps it with its digest and damage bookkeeping;
// replay tooling calls it on a graph no session is pinned to.
func ApplyUpdate(g *graph.Graph, up EdgeUpdate) (idx int, prev graph.Edge, err error) {
	switch up.Op {
	case SetWeight:
		if idx = g.FindEdge(up.U, up.V); idx < 0 {
			return idx, prev, fmt.Errorf("no edge (%d,%d) to set", up.U, up.V)
		}
		prev = g.Edges()[idx]
		if prev.W == up.W {
			return idx, prev, nil
		}
		return idx, prev, g.SetEdgeWeight(idx, up.W)
	case InsertEdge:
		idx = g.M()
		return idx, prev, g.AddEdge(up.U, up.V, up.W)
	case DeleteEdge:
		if idx = g.FindEdge(up.U, up.V); idx < 0 {
			return idx, prev, fmt.Errorf("no edge (%d,%d) to delete", up.U, up.V)
		}
		prev = g.Edges()[idx]
		return idx, prev, g.RemoveEdge(idx)
	}
	return -1, prev, fmt.Errorf("unknown update op %d", int(up.Op))
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

func minW(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// updateStats summarizes the snapshot's accumulated damage state.
func (s *Session) updateStats() UpdateStats {
	sn := &s.snap
	if !sn.valid || sn.fellBack {
		return UpdateStats{FellBack: true}
	}
	re := countTrue(sn.dirty1) + countTrue(sn.dirty3) + countTrue(sn.dirty7)
	total := len(sn.dirty1) + len(sn.dirty3) + len(sn.dirty7)
	return UpdateStats{Reused: total - re, Recomputed: re}
}

func countTrue(b []bool) int {
	n := 0
	for _, x := range b {
		if x {
			n++
		}
	}
	return n
}

// arcDamages is the relaxation half of the damage test (DESIGN.md §10):
// given the final distance row D of a label system, a weight update on
// edge (u,v) can change the system's final values only if the edge admits
// a relaxation that ties or improves some label under the smaller of the
// old and new weights — D[src] + min(wOld, wNew) <= D[dst] along a
// relaxation arc. The <= (rather than <) also protects tie-breaking
// (parent choices, confirmation waves, last-hop equalities), which change
// only when an equality appears or disappears across the updated edge.
// The test is sound ON ITS OWN only for hop-UNBOUNDED systems (final
// distance rows, full SSSPs), whose every label is a min over arbitrary
// relaxation chains: no chain through the updated edge can match the
// incumbent. Hop-bounded systems carry below-convergence Pareto points the
// collapsed row hides; they pair this test with the hop-bound gate and
// replay of hops.go (see Session.damage). In-mode systems relax along
// reversed arcs, so the test swaps endpoints; undirected edges are tested
// in both directions.
func arcDamages(D []int64, u, v int, wmin int64, directed bool, mode bford.Mode) bool {
	if mode == bford.In {
		u, v = v, u
	}
	if D[u] < graph.Inf && D[u]+wmin <= D[v] {
		return true
	}
	if !directed && D[v] < graph.Inf && D[v]+wmin <= D[u] {
		return true
	}
	return false
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed uint64
// permutation used to build the commutative content digest.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// edgeTerm is the digest contribution of edge (u,v,w) at index i. Each
// term is a mixed function of position AND content, so reorderings,
// endpoint swaps, and weight moves between edges all change the sum.
func edgeTerm(i, u, v int, w int64) uint64 {
	h := splitmix64(uint64(i) + 0x632BE59BD9B4E019)
	h = splitmix64(h + uint64(u))
	h = splitmix64(h + uint64(v))
	return splitmix64(h + uint64(w))
}

// GraphDigest is the exported content digest of a graph: the same
// SplitMix64 sum the session maintains incrementally, computed wholesale.
// Two graphs share a digest exactly when they have the same node count,
// directedness, and edge list (position, endpoints, weights) — the
// identity the serving pool keys warm Runners by.
func GraphDigest(g *graph.Graph) uint64 { return graphDigest(g) }

// graphDigest is the session's content digest: a wrapping sum of per-edge
// terms plus a header term. Unlike the FNV chain it replaces, the sum is
// position-keyed yet commutative in update order, so ApplyUpdates can
// maintain it in O(1) per weight change or append (term delta) instead of
// the O(m) rescan the old warm path paid on every begin(). Deletions — and
// paranoid -tags matcheck builds — recompute it wholesale.
func graphDigest(g *graph.Graph) uint64 {
	var dir uint64
	if g.Directed {
		dir = 1
	}
	sum := splitmix64(uint64(g.N)<<1 | dir)
	for i, e := range g.Edges() {
		sum += edgeTerm(i, e.U, e.V, e.W)
	}
	return sum
}
