package broadcast

import (
	"fmt"

	"congestapsp/internal/congest"
)

// ErrChargeMismatch is returned, in builds with -tags matcheck only, when a
// charged primitive's cost differs from that of its reference protocol run
// on a clone of the network. Field names what differs: "rounds",
// "messages", "words", "words-by-node" (Index is the node) or "stream" (a
// per-round delivery count; Index is the round, and a missing round counts
// as -1).
type ErrChargeMismatch struct {
	Op                 string
	Field              string
	Index              int
	Charged, Simulated int64
}

// Error describes where the charge and the reference protocol differ.
func (e *ErrChargeMismatch) Error() string {
	at := ""
	if e.Index >= 0 {
		at = fmt.Sprintf(" at %d", e.Index)
	}
	return fmt.Sprintf("broadcast: charged %s differs from its reference protocol in %s%s: %d charged, %d simulated",
		e.Op, e.Field, at, e.Charged, e.Simulated)
}

// refCheck is the pooled state of the matcheck guard: the reference
// network, a clone of the charged one kept while the topology lasts, and
// the recording buffers. Pooling them keeps a guarded call within the
// allocation budgets of allocs_test.go.
type refCheck struct {
	net       *congest.Network
	before    []int64 // WordsByNode before the charge
	stream    []int64 // the charge's per-round deliveries
	refStream []int64 // the reference run's
	prev      func(round, delivered int)
	record    func(round, delivered int) // bound once: records, then calls prev
	refRecord func(round, delivered int)
	blank     []Item
	blanks    [][]Item
}

// charged runs charge, the charge of primitive op on nw. In -tags matcheck
// builds it records what charge adds to nw's Stats and, through a wrapped
// OnRound hook, its per-round deliveries. If charge succeeds it then runs
// ref, the primitive's reference protocol, on a clone of nw and returns
// the first difference as an *ErrChargeMismatch.
func charged(nw *congest.Network, op string, charge func() error, ref func(c *congest.Network) error) error {
	if !checkCharge {
		return charge()
	}
	g := &getState(nw).check
	if g.record == nil {
		g.record = func(round, delivered int) {
			g.stream = append(g.stream, int64(delivered))
			if g.prev != nil {
				g.prev(round, delivered)
			}
		}
		g.refRecord = func(_, delivered int) { g.refStream = append(g.refStream, int64(delivered)) }
	}
	before := nw.Stats
	g.before = append(g.before[:0], nw.Stats.WordsByNode...)
	g.stream, g.prev = g.stream[:0], nw.OnRound
	nw.OnRound = g.record
	err := func() error {
		defer func() { nw.OnRound, g.prev = g.prev, nil }()
		return charge()
	}()
	if err != nil {
		return err
	}

	c := g.net
	if c == nil || c.UG != nw.UG {
		c = nw.Clone()
		c.OnRound = g.refRecord
		g.net = c
	}
	c.Bandwidth = nw.Bandwidth
	c.ResetStats()
	g.refStream = g.refStream[:0]
	if err := ref(c); err != nil {
		return err
	}
	s, r := &nw.Stats, &c.Stats
	mismatch := func(field string, i int, charged, simulated int64) error {
		return &ErrChargeMismatch{Op: op, Field: field, Index: i, Charged: charged, Simulated: simulated}
	}
	switch {
	case s.Rounds-before.Rounds != r.Rounds:
		return mismatch("rounds", -1, int64(s.Rounds-before.Rounds), int64(r.Rounds))
	case s.Messages-before.Messages != r.Messages:
		return mismatch("messages", -1, s.Messages-before.Messages, r.Messages)
	case s.Words-before.Words != r.Words:
		return mismatch("words", -1, s.Words-before.Words, r.Words)
	}
	for v := range r.WordsByNode {
		if d := s.WordsByNode[v] - g.before[v]; d != r.WordsByNode[v] {
			return mismatch("words-by-node", v, d, r.WordsByNode[v])
		}
	}
	at := func(xs []int64, i int) int64 {
		if i < len(xs) {
			return xs[i]
		}
		return -1
	}
	for i := 0; i < max(len(g.stream), len(g.refStream)); i++ {
		if at(g.stream, i) != at(g.refStream, i) {
			return mismatch("stream", i, at(g.stream, i), at(g.refStream, i))
		}
	}
	return nil
}

// blankItems returns per-node lists of cnt[v] zero items (pooled), the
// input of a reference run for a count-only call.
func (g *refCheck) blankItems(cnt []int32) [][]Item {
	total := 0
	for _, c := range cnt {
		total += int(c)
	}
	g.blank = congest.Grow(g.blank, total)
	g.blanks = congest.Grow(g.blanks, len(cnt))
	off := 0
	for v, c := range cnt {
		g.blanks[v] = g.blank[off : off+int(c)]
		off += int(c)
	}
	return g.blanks
}

// blankRow returns k zero items (pooled).
func (g *refCheck) blankRow(k int) []Item {
	g.blank = congest.Grow(g.blank, k)
	return g.blank
}
