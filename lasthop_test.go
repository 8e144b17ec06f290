package bench

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"congestapsp/pkg/apsp"
)

// TestLastHopPinned pins the last-hop matrices of cold sequential runs with
// last-edge resolution on: an FNV-64a hash of every LastHop[x][t], row by
// row, compared with a recorded value. The zero-weight mixes are where the
// settle wave, not the strict-decrease rule, decides predecessors; the
// multigraph has parallel and antiparallel arcs, so per-link weights and
// neighbor labels must be resolved per link, not per arc.
func TestLastHopPinned(t *testing.T) {
	multi := apsp.RandomGraph(apsp.GenOptions{N: 48, Directed: true, Seed: 21, MaxWeight: 20}, 150)
	var arcs [][3]int64
	multi.Edges(func(u, v int, w int64) {
		if len(arcs) < 40 {
			arcs = append(arcs, [3]int64{int64(u), int64(v), w})
		}
	})
	for i, a := range arcs {
		u, v, w := int(a[0]), int(a[1]), a[2]
		if err := multi.AddEdge(u, v, w+int64(i%3)); err != nil { // parallel
			t.Fatal(err)
		}
		if err := multi.AddEdge(v, u, w/2); err != nil { // antiparallel
			t.Fatal(err)
		}
	}
	scenario := func(name string) *apsp.Graph {
		s, err := apsp.ParseScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		g    *apsp.Graph
		hash uint64
	}{
		{"zeromix-undir", apsp.ZeroWeightGraph(apsp.GenOptions{N: 48, Seed: 6, MaxWeight: 9}, 140), 0xea63f9fa384120ad},
		{"zeromix-dir", apsp.ZeroWeightGraph(apsp.GenOptions{N: 48, Directed: true, Seed: 7, MaxWeight: 9}, 160), 0x785bc38e804319d4},
		{"star-n64", scenario("star-n64-s1"), 0xff385c4788597e25},
		{"ring-n64", scenario("ring-n64-s1"), 0xf072a586c80aa41f},
		{"multi-dir", multi, 0x71823678d514fd67},
	}
	for _, tc := range cases {
		res, err := apsp.Run(tc.g, apsp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.LastHop) != tc.g.N() {
			t.Fatalf("%s: LastHop has %d rows, want %d", tc.name, len(res.LastHop), tc.g.N())
		}
		h := fnv.New64a()
		var word [8]byte
		for _, row := range res.LastHop {
			for _, u := range row {
				binary.LittleEndian.PutUint64(word[:], uint64(int64(u)))
				h.Write(word[:])
			}
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("%s: LastHop hash %#x, want %#x", tc.name, got, tc.hash)
		}
	}
}
