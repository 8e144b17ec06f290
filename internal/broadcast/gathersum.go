package broadcast

import (
	"fmt"

	"congestapsp/internal/congest"
)

// GatherSum implements the pipelined aggregation of Algorithms 11 and 12 of
// the paper (computing the nu_Pi / nu_Pij totals at the leader): every node
// v holds a vector vec[v] of m values; after the protocol the tree root
// knows the element-wise sum over all nodes. Slot mu flows up the tree on a
// fixed schedule — a node at depth d forwards slot mu at round
// (height - d) + mu, having received its children's slot-mu partial sums in
// the same round — so the whole aggregation takes height + m + 1 rounds
// (Lemmas A.13/A.14: O(n) rounds for m = O(n)) and every non-root node sends
// m messages. Vectors shorter than the longest are padded with zeros.
//
// The schedule is charged and the sum computed on the host. The result is
// written to dst, grown when too short, and returned; with no values at all
// (m = 0) no round is charged and the result is empty.
func GatherSum(nw *congest.Network, t *Tree, vec [][]int64, dst []int64) ([]int64, error) {
	n := nw.N()
	if len(vec) != n {
		return nil, fmt.Errorf("broadcast: GatherSum: %d vectors for %d nodes", len(vec), n)
	}
	m := 0
	for v := range vec {
		m = max(m, len(vec[v]))
	}
	dst = congest.Grow(dst, m)
	if m == 0 {
		return dst, nil
	}
	err := nw.Charged("gather-sum", func() error {
		return chargeSum(nw, t, m)
	}, func(c *congest.Network) error {
		_, err := sumRef(c, t, vec, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	for v := range vec {
		for mu, x := range vec[v] {
			dst[mu] += x
		}
	}
	return dst, nil
}

// sumSchedule is the fixed schedule of GatherSum: a non-root node at depth
// d sends slot mu in round (height - d) + mu, so round r delivers one
// message from each node with depth in [height-r, height-r+m-1].
type sumSchedule struct {
	m, height int
	depths    []int32
}

// Round implements congest.Schedule.
func (s *sumSchedule) Round(r int) (int64, bool) {
	lo, hi := max(1, s.height-r), min(s.height, s.height-r+s.m-1)
	var sent int64
	if lo <= hi {
		sent = int64(s.depths[hi] - s.depths[lo-1])
	}
	return sent, r < s.height+s.m
}

// chargeSum charges the aggregation of m slots. After an interruption a
// non-root node at depth d has sent the slots of the rounds from height-d
// up to the last completed one.
func chargeSum(nw *congest.Network, t *Tree, m int) error {
	st := getState(nw)
	s := &st.sum
	*s = sumSchedule{m: m, height: t.Height, depths: st.depthCounts(t)}
	done, err := nw.ChargeSchedule(s)
	for v, d := range t.Depth {
		if v != t.Root {
			sent := min(m, max(0, done-(t.Height-d)))
			nw.Stats.WordsByNode[v] += int64(sent)
		}
	}
	if err != nil {
		return fmt.Errorf("broadcast: GatherSum: %w", err)
	}
	return nil
}
