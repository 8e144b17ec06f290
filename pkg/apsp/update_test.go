package apsp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestApplyUpdateMatchesRunner is the differential test of the one
// edge-addressing rule: generated update streams go through
// Graph.ApplyUpdate on one copy of a graph and through Runner.ApplyUpdates
// on another, and the two must fail at the same index and end on the same
// digest. The streams mix weight sets (some to the current weight),
// inserts (some parallel to an existing edge), deletes, endpoints given in
// reverse on undirected graphs, sets and deletes of missing edges, and
// self-loop inserts.
func TestApplyUpdateMatchesRunner(t *testing.T) {
	failed := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		base := RandomGraph(GenOptions{N: n, Directed: seed%2 == 0, Seed: seed, MaxWeight: 9}, 3*n)
		a, b := &Graph{g: base.g.Clone()}, &Graph{g: base.g.Clone()}
		r, err := NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		if seed%3 == 0 {
			// An armed snapshot sends weight sets through the damage test.
			if _, err := r.Run(Options{SkipLastHops: true}); err != nil {
				t.Fatal(err)
			}
		}
		var ups []EdgeUpdate
		failAt := -1
		for len(ups) < 24 {
			up := randomUpdate(rng, a)
			ups = append(ups, up)
			if failAt < 0 && a.ApplyUpdate(up) != nil {
				failAt = len(ups) - 1
			}
		}
		got := -1
		if _, err := r.ApplyUpdates(ups); err != nil {
			var ue *UpdateError
			if !errors.As(err, &ue) {
				t.Fatalf("seed %d: got %T (%v), want *UpdateError", seed, err, err)
			}
			got = ue.Index
		}
		if got != failAt {
			t.Fatalf("seed %d: Runner.ApplyUpdates failed at %d, Graph.ApplyUpdate at %d (-1 = none)", seed, got, failAt)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("seed %d: digests diverge after %d updates", seed, len(ups))
		}
		if failAt >= 0 {
			failed++
		}
		// Under -tags matcheck a run re-verifies the session's incremental
		// digest against the graph; the pipeline needs a connected network.
		if linked(b) {
			if _, err := r.Run(Options{SkipLastHops: true}); err != nil {
				t.Fatalf("seed %d: run after updates: %v", seed, err)
			}
		}
	}
	if failed == 0 || failed == 60 {
		t.Fatalf("%d of 60 streams failed; the generator must produce both outcomes", failed)
	}
}

// randomUpdate draws one update against g's current edges.
func randomUpdate(rng *rand.Rand, g *Graph) EdgeUpdate {
	edges := g.g.Edges()
	e := edges[rng.Intn(len(edges))]
	u, v := e.U, e.V
	if !g.Directed() && rng.Intn(2) == 0 {
		u, v = v, u
	}
	switch k := rng.Intn(100); {
	case k < 3:
		// A set or delete of a missing edge: a random pair with no edge,
		// or (u, u), which never has one.
		v = u
		for try := 0; try < 20; try++ {
			if x, y := rng.Intn(g.N()), rng.Intn(g.N()); x != y && g.g.FindEdge(x, y) < 0 {
				u, v = x, y
				break
			}
		}
		op := SetWeight
		if rng.Intn(2) == 0 {
			op = DeleteEdge
		}
		return EdgeUpdate{Op: op, U: u, V: v, W: 1}
	case k < 4:
		return EdgeUpdate{Op: InsertEdge, U: u, V: u, W: 1} // self-loop
	case k < 40:
		w := rng.Int63n(10)
		if rng.Intn(4) == 0 {
			w = edges[g.g.FindEdge(u, v)].W // the addressed edge's current weight
		}
		return EdgeUpdate{Op: SetWeight, U: u, V: v, W: w}
	case k < 55 && len(edges) > g.N():
		return EdgeUpdate{Op: DeleteEdge, U: u, V: v}
	case k < 75:
		return EdgeUpdate{Op: InsertEdge, U: u, V: v, W: rng.Int63n(10)} // parallel edge
	default:
		u, v = rng.Intn(g.N()), rng.Intn(g.N())
		for u == v {
			v = rng.Intn(g.N())
		}
		return EdgeUpdate{Op: InsertEdge, U: u, V: v, W: rng.Int63n(10)}
	}
}

// linked reports whether g's communication network (its edges taken
// undirected) is connected.
func linked(g *Graph) bool {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	parts := g.N()
	g.Edges(func(u, v int, _ int64) {
		if ru, rv := find(u), find(v); ru != rv {
			parent[ru] = rv
			parts--
		}
	})
	return parts <= 1
}

// TestBlockerSetKeepsPendingUpdates pins that a blocker-only call between
// ApplyUpdates and Run neither consumes the pending updates nor touches
// the result snapshot: the Run after it stays incremental and charges the
// messages it charges without the blocker call, fewer than a cold run's.
// Both runs equal the cold run in distances, rounds, |Q| and h.
func TestBlockerSetKeepsPendingUpdates(t *testing.T) {
	base := RandomGraph(GenOptions{N: 40, Seed: 5, MaxWeight: 20}, 120)
	e := base.g.Edges()[0]
	up := EdgeUpdate{Op: SetWeight, U: e.U, V: e.V, W: e.W + 7}
	warm := func(blockerBetween bool) *Result {
		r, err := NewRunner(&Graph{g: base.g.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ApplyUpdates([]EdgeUpdate{up}); err != nil {
			t.Fatal(err)
		}
		if blockerBetween {
			if _, _, err := r.BlockerSet(BlockerOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mutated := &Graph{g: base.g.Clone()}
	if err := mutated.ApplyUpdate(up); err != nil {
		t.Fatal(err)
	}
	cold, err := Run(mutated, Options{})
	if err != nil {
		t.Fatal(err)
	}
	with, without := warm(true), warm(false)
	if with.Stats.Messages != without.Stats.Messages {
		t.Fatalf("a blocker set between update and run moved the run's messages: %d, without it %d", with.Stats.Messages, without.Stats.Messages)
	}
	if without.Stats.Messages != 99640 || cold.Stats.Messages != 129944 {
		t.Fatalf("messages: incremental %d, cold %d; want 99640 and 129944", without.Stats.Messages, cold.Stats.Messages)
	}
	for _, res := range []*Result{with, without} {
		if !reflect.DeepEqual(res.Dist, cold.Dist) || res.Stats.Rounds != cold.Stats.Rounds ||
			res.Stats.BlockerSetSize != cold.Stats.BlockerSetSize || res.Stats.H != cold.Stats.H {
			t.Fatalf("run after update diverges from cold: rounds %d |Q| %d h %d, cold %d %d %d",
				res.Stats.Rounds, res.Stats.BlockerSetSize, res.Stats.H, cold.Stats.Rounds, cold.Stats.BlockerSetSize, cold.Stats.H)
		}
	}
}
