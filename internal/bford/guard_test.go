//go:build matcheck

package bford

import (
	"errors"
	"slices"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// TestBfordChargeGuardMatcheck pins the matcheck guard on a host run: a
// relaxation on a star from the hub that pushes along one arc too many,
// or puts a word on the wrong node, and a wave that leaves a wrong parent,
// each fail with congest.ErrChargeMismatch naming the difference, and the
// right runs pass.
func TestBfordChargeGuardMatcheck(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 2})
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	const hops = 2
	init := make([]int64, g.N)
	for v := range init {
		init[v] = graph.Inf
	}
	init[0] = 0
	ra := getRelAdj(nw, g, Out)
	// extra is ra with one more arc in the hub's push row: a second push to
	// leaf 1, too heavy to change its label.
	extra := *ra
	at := int(ra.ntfOff[1])
	extra.ntfOff = slices.Clone(ra.ntfOff)
	for v := 1; v <= g.N; v++ {
		extra.ntfOff[v]++
	}
	extra.ntf = slices.Insert(slices.Clone(ra.ntf), at, 0)
	extra.pushTo = slices.Insert(slices.Clone(ra.pushTo), at, 1)
	extra.pushW = slices.Insert(slices.Clone(ra.pushW), at, 100)

	var rs *runState
	relax := func(adj *relAdj, perturb func()) error {
		var err error
		if rs, _, err = prepare(nw, g, init, Out); err != nil {
			return err
		}
		return nw.Charged("bford-relax", func() error {
			err := rs.relax.run(nw, &rs.res, adj, hops)
			perturb()
			return err
		}, func(c *congest.Network) error {
			return checkRelax(c, init, hops, Out, &rs.res)
		})
	}
	wave := func(perturb func()) error {
		rs.res.Confirmed = rs.confirmed
		clear(rs.res.Confirmed)
		return nw.Charged("bford-wave", func() error {
			err := rs.wave.run(nw, &rs.res, ra, hops)
			perturb()
			return err
		}, func(c *congest.Network) error {
			return checkWave(c, ra, hops, &rs.res)
		})
	}
	cases := []struct {
		name string
		run  func() error
		want *congest.ErrChargeMismatch // nil: the guard passes
	}{
		{"right run", func() error {
			if err := relax(ra, func() {}); err != nil {
				return err
			}
			return wave(func() {})
		}, nil},
		{"a delivery too many", func() error { return relax(&extra, func() {}) },
			&congest.ErrChargeMismatch{Op: "bford-relax", Field: "messages", Index: -1, Charged: 11, Simulated: 10}},
		{"words on the wrong node", func() error {
			return relax(ra, func() {
				nw.Stats.WordsByNode[0]--
				nw.Stats.WordsByNode[1]++
			})
		}, &congest.ErrChargeMismatch{Op: "bford-relax", Field: "words-by-node", Index: 0, Charged: 4, Simulated: 5}},
		{"a wrong parent", func() error {
			if err := relax(ra, func() {}); err != nil {
				return err
			}
			return wave(func() { rs.res.Parent[2] = 1 })
		}, &congest.ErrChargeMismatch{Op: "bford-wave", Field: "parent", Index: 2, Charged: 1, Simulated: 0}},
	}
	for _, tc := range cases {
		err := tc.run()
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
