//go:build matcheck

package broadcast

import (
	"errors"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// stream is a hand-written schedule: the deliveries of each round.
type stream []int64

func (s stream) Round(r int) (int64, bool) { return s[r], r+1 < len(s) }

// TestChargeGuardMatcheck pins the matcheck guard of charged primitives:
// a charge that differs from the reference flood of two items on a star
// (rounds, per-node words, or only the per-round stream) fails with
// congest.ErrChargeMismatch naming the difference, and the right charge passes.
func TestChargeGuardMatcheck(t *testing.T) {
	g := graph.Star(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 2})
	items := make([]Item, 2)
	cases := []struct {
		name   string
		charge func(nw *congest.Network, tr *Tree) error
		want   *congest.ErrChargeMismatch // nil: the guard passes
	}{
		{"right charge", func(nw *congest.Network, tr *Tree) error {
			return chargeFlood(nw, tr, 2)
		}, nil},
		{"one item too many", func(nw *congest.Network, tr *Tree) error {
			return chargeFlood(nw, tr, 3)
		}, &congest.ErrChargeMismatch{Op: "broadcast", Field: "rounds", Index: -1, Charged: 4, Simulated: 3}},
		{"words on the wrong node", func(nw *congest.Network, tr *Tree) error {
			err := chargeFlood(nw, tr, 2)
			nw.Stats.WordsByNode[0]--
			nw.Stats.WordsByNode[1]++
			return err
		}, &congest.ErrChargeMismatch{Op: "broadcast", Field: "words-by-node", Index: 0, Charged: 9, Simulated: 10}},
		{"all at once", func(nw *congest.Network, tr *Tree) error {
			_, err := nw.ChargeSchedule(stream{10, 0, 0})
			nw.Stats.WordsByNode[0] += 10
			return err
		}, &congest.ErrChargeMismatch{Op: "broadcast", Field: "stream", Index: 0, Charged: 10, Simulated: 5}},
	}
	for _, tc := range cases {
		nw := newNet(t, g, 1)
		tr, err := BuildBFS(nw, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = nw.Charged("broadcast", func() error {
			return tc.charge(nw, tr)
		}, func(c *congest.Network) error {
			return floodRef(c, tr, items)
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
