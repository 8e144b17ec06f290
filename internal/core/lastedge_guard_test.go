//go:build matcheck

package core

import (
	"errors"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// TestLastEdgeChargeGuardMatcheck pins the matcheck guard on step 8's host
// run: on a star, a resolution that leaves a wrong last hop, or puts a
// word on the wrong node, fails with congest.ErrChargeMismatch naming the
// difference, and the right run passes.
func TestLastEdgeChargeGuardMatcheck(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 2})
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.FloydWarshall(g)
	budget := 8*g.N + 64
	if _, err := resolveLastEdges(nw, dist, budget); err != nil {
		t.Fatal(err)
	}
	st := congest.ScratchState(nw.Scratch(), lastEdgeKey{}, func() *lastEdgeState { return new(lastEdgeState) })
	run := func(perturb func(lh [][]int)) error {
		lh := mat.NewIntFilled(g.N, g.N, -1).RowViews()
		return nw.Charged("lastedge", func() error {
			err := st.sched.run(nw, &st.adj, dist, lh, budget)
			perturb(lh)
			return err
		}, func(c *congest.Network) error {
			return checkLastEdges(c, dist, budget, lh)
		})
	}
	cases := []struct {
		name    string
		perturb func(lh [][]int)
		want    *congest.ErrChargeMismatch // nil: the guard passes
	}{
		{"right run", func([][]int) {}, nil},
		{"a wrong last hop", func(lh [][]int) { lh[1][2] = 3 },
			&congest.ErrChargeMismatch{Op: "lastedge", Field: "last-hop", Index: 1*6 + 2, Charged: 3, Simulated: 0}},
		{"words on the wrong node", func([][]int) {
			nw.Stats.WordsByNode[0]--
			nw.Stats.WordsByNode[1]++
		}, &congest.ErrChargeMismatch{Op: "lastedge", Field: "words-by-node", Index: 0, Charged: 59, Simulated: 60}},
	}
	for _, tc := range cases {
		nw.ResetStats()
		err := run(tc.perturb)
		var cm *congest.ErrChargeMismatch
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && (!errors.As(err, &cm) || *cm != *tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if nw.OnRound != nil {
			t.Errorf("%s: the guard left its OnRound hook armed", tc.name)
		}
	}
}
