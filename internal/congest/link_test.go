package congest

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"congestapsp/internal/graph"
)

// TestMessageSize pins the packed layout of Message: the engine copies
// every message twice per delivery, so its size is the per-message memory
// traffic.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 40", got)
	}
}

// multigraph is a directed random graph with parallel and antiparallel
// copies of its first arcs, so several input edges share one link.
func multigraph(n int, seed int64) *graph.Graph {
	g := graph.RandomConnected(graph.GenConfig{N: n, Directed: true, Seed: seed, MaxWeight: 9}, 3*n)
	arcs := append([]graph.Edge(nil), g.Edges()[:n/2]...)
	for _, e := range arcs {
		g.MustAddEdge(e.U, e.V, e.W+1) // parallel
		g.MustAddEdge(e.V, e.U, e.W)   // antiparallel
	}
	return g
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// slotGraphs are the generated inputs of the slot-delivery tests, n = 2-64.
func slotGraphs() []namedGraph {
	var gs []namedGraph
	for _, n := range []int{2, 3, 7, 64} {
		cfg := graph.GenConfig{N: n, Seed: int64(n), MaxWeight: 9}
		gs = append(gs,
			namedGraph{"star", graph.Star(cfg)},
			namedGraph{"random", graph.RandomConnected(cfg, 3*n)},
			namedGraph{"multi", multigraph(n, int64(n))})
		if n >= 3 {
			gs = append(gs, namedGraph{"ring", graph.Ring(cfg)})
			cfg.Directed = true
			gs = append(gs, namedGraph{"ring-dir", graph.Ring(cfg)})
		}
	}
	return gs
}

// slotDelivery runs one round in which every node sends on every link
// slot, with garbage in From and To, and checks at each receiver that the
// engine filled From and To from the topology and rewrote Link to the
// receiver's slot: Neighbors(v)[m.Link] == m.From, m.To == v, and the
// sender's own slot (carried in A) leads back to v. Every node must hear
// once on each of its links.
func slotDelivery(nw *Network) error {
	n := nw.N()
	heard := make([]int, n)
	bad := make([]string, n)
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if round == 0 {
			for li := range nw.Neighbors(v) {
				send(Message{From: -7, To: int32(n + 3), Link: int32(li), A: int64(li)})
			}
			return true
		}
		nbrs := nw.Neighbors(v)
		for _, m := range in {
			switch {
			case m.To != int32(v):
				bad[v] = fmt.Sprintf("node %d: m.To = %d", v, m.To)
			case m.Link < 0 || int(m.Link) >= len(nbrs) || nbrs[m.Link] != int(m.From):
				bad[v] = fmt.Sprintf("node %d: slot %d does not lead to sender %d (neighbors %v)", v, m.Link, m.From, nbrs)
			case nw.Neighbors(int(m.From))[m.A] != v:
				bad[v] = fmt.Sprintf("node %d: sender %d's slot %d leads elsewhere", v, m.From, m.A)
			}
			heard[v]++
		}
		return true
	})
	if _, err := nw.Run(p, 4); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if bad[v] != "" {
			return errors.New(bad[v])
		}
		if heard[v] != nw.Degree(v) {
			return fmt.Errorf("node %d heard %d messages, want one per link (%d)", v, heard[v], nw.Degree(v))
		}
	}
	return nil
}

// TestLinkSlotDelivery checks slot addressing on generated graphs in two
// ShardRuns sub-runs: sequentially on the network itself, and with Parallel
// concurrently on two worker clones, which share its CSR and reverse-link
// table.
func TestLinkSlotDelivery(t *testing.T) {
	withWorkers(t, 2)
	for _, gc := range slotGraphs() {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-n%d/parallel=%v", gc.name, gc.g.N, parallel), func(t *testing.T) {
				nw, err := NewNetwork(gc.g, 1)
				if err != nil {
					t.Fatal(err)
				}
				nw.Parallel = parallel
				if err := nw.ShardRuns(2, func(w *Network, _ int) error { return slotDelivery(w) }); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLinkSlotDeliveryAfterSyncTopology inserts one edge and deletes
// another under a warm network with a worker fleet: SyncTopology must
// rebuild the reverse-link table on the network and on its clones.
func TestLinkSlotDeliveryAfterSyncTopology(t *testing.T) {
	withWorkers(t, 2)
	g := graph.RandomConnected(graph.GenConfig{N: 24, Seed: 8, MaxWeight: 9}, 48)
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Parallel = true
	if err := nw.ShardRuns(2, floodFor); err != nil { // builds the fleet
		t.Fatal(err)
	}
	if len(nw.fleet) == 0 {
		t.Fatal("no worker fleet")
	}
	// Delete an extra edge (the first n-1 are the connecting spine) that is
	// alone on its link, then insert an edge between two non-neighbors.
	links := func(a, b int) (c int) {
		for _, e := range g.Edges() {
			if e.U == a && e.V == b || e.U == b && e.V == a {
				c++
			}
		}
		return c
	}
	del := g.M() - 1
	for links(g.Edges()[del].U, g.Edges()[del].V) > 1 {
		if del--; del < g.N-1 {
			t.Fatal("every extra edge shares its link")
		}
	}
	gone := g.Edges()[del]
	if err := g.RemoveEdge(del); err != nil {
		t.Fatal(err)
	}
	u, v := 0, 1
	for nw.IsLink(u, v) {
		v++
	}
	g.MustAddEdge(u, v, 3)
	if err := nw.SyncTopology(); err != nil {
		t.Fatal(err)
	}
	if !nw.IsLink(u, v) || nw.IsLink(gone.U, gone.V) {
		t.Fatalf("after SyncTopology: link %d-%d present %v (want true), link %d-%d present %v (want false)",
			u, v, nw.IsLink(u, v), gone.U, gone.V, nw.IsLink(gone.U, gone.V))
	}
	for _, w := range []*Network{nw, nw.fleet[0]} {
		if err := slotDelivery(w); err != nil {
			t.Fatal(err)
		}
	}
}
