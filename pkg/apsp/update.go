package apsp

import (
	"fmt"
	"io"

	"congestapsp/internal/core"
	"congestapsp/internal/graphio"
)

// UpdateOp selects what an EdgeUpdate does to the Runner's graph.
type UpdateOp int

const (
	// SetWeight changes the weight of the first existing U-V edge (either
	// orientation on undirected graphs). Weight-only updates keep the
	// communication topology, so they are the cheap case: the next Run
	// re-computes only the per-source work the change can have affected.
	SetWeight UpdateOp = iota
	// InsertEdge adds a new U->V edge of weight W. Topology changes rebuild
	// the warm network's adjacency in place but force the next Run to
	// recompute from scratch (UpdateStats.FellBack).
	InsertEdge
	// DeleteEdge removes the first existing U-V edge; same fallback as
	// InsertEdge.
	DeleteEdge
)

// String names the operation as it appears in update streams and errors.
func (op UpdateOp) String() string { return core.UpdateOp(op).String() }

// EdgeUpdate is one graph mutation: the edge identified by its endpoints,
// and for SetWeight/InsertEdge the new weight (W is ignored for DeleteEdge).
type EdgeUpdate struct {
	Op   UpdateOp
	U, V int
	W    int64
}

// UpdateStats reports, after a batch of updates, how much of the warm
// session's computed state survives for the next Run. The session tracks
// 2n + |Q| per-source label systems; Recomputed counts the systems the
// accumulated damage forces the next run to re-execute, Reused the rest.
// FellBack means the next run recomputes everything: the topology changed,
// no result snapshot was armed (no full-APSP run since the last update),
// or the damage was broad enough that the incremental path would not pay
// off.
type UpdateStats struct {
	Reused     int
	Recomputed int
	FellBack   bool
}

// ReadUpdates parses a newline-delimited update stream (the `apsp -update`
// file format): one update per line — `w u v weight` sets a weight,
// `a u v weight` inserts an edge, `d u v` deletes one — with '#'-prefixed
// comments and blank lines ignored. Errors carry 1-based line numbers.
func ReadUpdates(r io.Reader) ([]EdgeUpdate, error) {
	raw, err := graphio.ReadUpdates(r)
	if err != nil {
		return nil, err
	}
	ups := make([]EdgeUpdate, len(raw))
	for i, u := range raw {
		op := SetWeight
		switch u.Kind {
		case graphio.UpdateInsert:
			op = InsertEdge
		case graphio.UpdateDelete:
			op = DeleteEdge
		}
		ups[i] = EdgeUpdate{Op: op, U: u.U, V: u.V, W: u.W}
	}
	return ups, nil
}

// ApplyUpdate mutates g directly with exactly the edge addressing of
// Runner.ApplyUpdates (both call one function) — SetWeight and DeleteEdge
// act on the first existing U-V edge (either orientation on undirected
// graphs), InsertEdge appends, and setting a weight to its current value
// is accepted and ignored — but without any session: no damage tracking,
// no warm network, just the graph content. It exists for replay tooling
// (the serving layer's journal recovery) that reconstructs a graph from a
// recorded update stream before building a Runner on the result; applying
// the same updates here and through a Runner lands on the same Digest. A
// graph pinned to a live Runner must NOT be mutated this way — that is
// exactly the out-of-band mutation the Runner's version guard refuses.
func (g *Graph) ApplyUpdate(up EdgeUpdate) error {
	if _, _, err := core.ApplyUpdate(g.g, core.EdgeUpdate{Op: core.UpdateOp(up.Op), U: up.U, V: up.V, W: up.W}); err != nil {
		return fmt.Errorf("apsp: %w", err)
	}
	return nil
}

// ApplyUpdates applies the batch to the Runner's graph, in order, patching
// the warm network in place and arming the next Run to reflect the mutated
// graph. It is the Runner's sanctioned mutation path — the inversion of
// the old "the graph must not change" rule.
//
// The next Run after ApplyUpdates is bit-identical in results (Dist,
// LastHop), round count, |Q| and h to a cold run on the mutated graph.
// When it can reuse snapshot state it skips simulating work whose outcome
// is provably unchanged, so message/word counters may legitimately be
// lower than a cold run's; runs after that are plain warm runs and match
// cold runs exactly, counters included.
//
// On error the batch stops at the failing update; earlier updates remain
// applied, the Runner stays consistent with the partially-mutated graph,
// and the returned UpdateStats describes that state. Updates that set a
// weight to its current value are accepted and ignored.
func (r *Runner) ApplyUpdates(ups []EdgeUpdate) (UpdateStats, error) {
	cups := make([]core.EdgeUpdate, len(ups))
	for i, u := range ups {
		cups[i] = core.EdgeUpdate{Op: core.UpdateOp(u.Op), U: u.U, V: u.V, W: u.W}
	}
	st, err := r.s.ApplyUpdates(cups)
	out := UpdateStats{Reused: st.Reused, Recomputed: st.Recomputed, FellBack: st.FellBack}
	if err != nil {
		return out, translateErr(err)
	}
	return out, nil
}
