//go:build matcheck

package csssp

import (
	"errors"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// TestTreeChargeGuardMatcheck pins the shared matcheck guard on a charged
// per-tree call: an upcast of the hub's tree on a star whose charge
// delivers one message too many, puts a word on the wrong node, or sums
// one too many at the root fails with congest.ErrChargeMismatch naming the
// difference, and the right charge passes.
func TestTreeChargeGuardMatcheck(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 2})
	c, nw := buildAll(t, g, 2, bford.Out)
	init := []int64{1, 1, 1, 1, 1, 1}
	acc := make([]int64, g.N)
	var walk TreeWalk
	charge := func(perturb func()) func() error {
		return func() error {
			c.Walk(&walk, 0)
			c.UpcastSumLocal(&walk, 0, init, acc)
			perturb()
			done, err := c.ChargeRun(nw, &walk, Upcast)
			c.AddWords(nw.Stats.WordsByNode, &walk, 0, RunCounts{Upcast: 1}, done)
			return err
		}
	}
	cases := []struct {
		name   string
		charge func() error
		want   *congest.ErrChargeMismatch // nil: the guard passes
	}{
		{"right charge", charge(func() {}), nil},
		{"a delivery too many", charge(func() { walk.Hist[1]++ }),
			&congest.ErrChargeMismatch{Op: "upcast", Field: "messages", Index: -1, Charged: 6, Simulated: 5}},
		{"words on the wrong node", func() error {
			err := charge(func() {})()
			nw.Stats.WordsByNode[1]--
			nw.Stats.WordsByNode[0]++
			return err
		}, &congest.ErrChargeMismatch{Op: "upcast", Field: "words-by-node", Index: 0, Charged: 1, Simulated: 0}},
		{"a wrong sum", func() error {
			err := charge(func() {})()
			acc[0]++
			return err
		}, &congest.ErrChargeMismatch{Op: "upcast", Field: "acc", Index: 0, Charged: 7, Simulated: 6}},
	}
	for _, tc := range cases {
		err := nw.Charged("upcast", tc.charge, func(ref *congest.Network) error {
			return c.checkUpcast(ref, 0, init, acc, walk.Nodes)
		})
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
