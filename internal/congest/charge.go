package congest

import "fmt"

// This file implements charged protocol runs (DESIGN.md §3): a run whose
// rounds and deliveries follow from the shape of its input alone, or that
// the host executes round by round with its protocol's own transition, is
// charged instead of simulated, and in -tags matcheck builds every charged
// call is checked against the engine protocol it replaces.

// chargeState is a network's pooled state for charged runs.
type chargeState struct {
	deliv []int64      // ChargeFixed's per-round delivery differences
	guard *chargeGuard // the matcheck guard, built on first use
}

// Schedule is the round-by-round delivery count of a protocol run. Either
// it follows from the shape of the run's input alone (a tree, per-node item
// counts, the bandwidth) and never from payload values, or Round executes
// the round on the host with the reference protocol's own per-node
// transition, so the count is the one the engine would deliver. Every
// message it counts is one word.
type Schedule interface {
	// Round reports how many messages round r sends, to be read in round
	// r+1, and whether round r+1 takes place. It is called once per round,
	// in order, and only for rounds that start.
	Round(r int) (delivered int64, more bool)
}

// ChargeSchedule charges a protocol run from its schedule instead of
// simulating it. Each round does what the engine does around the step: the
// context check, the fault injector's FireRound, the Rounds, Messages and
// Words counters, then OnRound, so hooks, fault rules and traces see the
// round stream a simulated run would give. WordsByNode is the caller's to
// charge, since only it knows who sent. It returns the rounds charged; an
// interrupted schedule returns the rounds it completed, as run does. Only a
// payload-oblivious schedule, or a host execution of the reference
// protocol's transition, with that reference protocol checked against it
// may be charged this way (see DESIGN.md §3).
func (nw *Network) ChargeSchedule(s Schedule) (int, error) {
	for r := 0; ; r++ {
		if err := nw.startRound(r); err != nil {
			return r, err
		}
		delivered, more := s.Round(r)
		nw.endRound(delivered)
		if !more {
			return r + 1, nil
		}
	}
}

// Burst is one sender's traffic in a charged run: node V sends Words
// one-word messages, one per receiving link, in every round from First
// through Last. Words is at least 1.
type Burst struct {
	V, First, Last, Words int32
}

// ChargeFixed charges what RunFrom(p, start, budget, true) would charge
// for a run whose sends are bursts, without stepping any node. live is the
// number of rounds the run lasts without mail: 1 when every node
// terminates in round 0, else 2 more than the last round in which some
// node returns false, since that node steps once more. The engine
// simulates max(live, last send round + 2) rounds, at most budget: the
// round after a send steps its receivers. Those rounds are replayed by
// ChargeRun, and sends in the final budget round are dropped, as RunFrom
// drops them. Each sender is charged its words for the rounds completed.
// It returns what ChargeRun returns. Only a payload-oblivious run with a
// reference protocol checked against it may be charged this way (see
// DESIGN.md §3).
func (nw *Network) ChargeFixed(bursts []Burst, live, budget int) (int, error) {
	last := -1
	for _, b := range bursts {
		last = max(last, int(b.Last))
	}
	rounds := min(budget, max(live, last+2))
	cs := &nw.charge
	cs.deliv = Grow(cs.deliv, rounds+1)
	drop := int32(budget - 1)
	for _, b := range bursts {
		if hi := min(b.Last, drop-1); b.First <= hi {
			cs.deliv[b.First] += int64(b.Words)
			cs.deliv[hi+1] -= int64(b.Words)
		}
	}
	for r := 1; r < rounds; r++ {
		cs.deliv[r] += cs.deliv[r-1]
	}
	done, err := nw.ChargeRun(rounds, budget, func(r int) int64 { return cs.deliv[r] })
	for _, b := range bursts {
		if k := min(b.Last, drop-1, int32(done-1)) - b.First + 1; k > 0 {
			nw.Stats.WordsByNode[b.V] += int64(k) * int64(b.Words)
		}
	}
	return done, err
}

// ChargeRun charges what RunFrom(p, start, budget, true) would charge for
// a run that simulates rounds rounds, at most budget, in which round r
// sends sent(r) one-word messages, none in the final budget round; sent
// is called once per round, in order. The rounds are replayed as
// ChargeSchedule replays a schedule; on success the rest of the budget is
// charged without OnRound and ChargeRun returns budget, and an
// interrupted run returns the rounds it completed. WordsByNode is the
// caller's to charge. The same conditions as for ChargeFixed apply.
func (nw *Network) ChargeRun(rounds, budget int, sent func(r int) int64) (int, error) {
	for r := 0; r < rounds; r++ {
		if err := nw.startRound(r); err != nil {
			return r, err
		}
		nw.endRound(sent(r))
	}
	nw.Stats.Rounds += budget - rounds
	return budget, nil
}

// startRound is what the engine does before stepping round r: the context
// check and the fault injector's FireRound.
func (nw *Network) startRound(r int) error {
	if nw.ctx != nil {
		if err := nw.ctx.Err(); err != nil {
			return err
		}
	}
	if nw.fault != nil {
		return nw.fault.FireRound(nw.subrun, r)
	}
	return nil
}

// endRound is what the engine does after a round that delivered one-word
// messages: the counters, then OnRound.
func (nw *Network) endRound(delivered int64) {
	nw.Stats.Rounds++
	nw.Stats.Messages += delivered
	nw.Stats.Words += delivered
	if nw.OnRound != nil {
		nw.OnRound(nw.roundSeq, int(delivered))
	}
	nw.roundSeq++
}

// ChargesChecked is true in builds with -tags matcheck, where every
// Charged call is checked against its reference protocol. A caller that
// counts a charge's WordsByNode to add them later adds them before the
// charge returns when it is set, since the guard compares what the call
// added.
const ChargesChecked = checkCharge

// ErrChargeMismatch is returned, in builds with -tags matcheck only, when a
// charged primitive differs from its reference protocol run on a clone of
// the network. Field names what differs: "rounds", "messages", "words",
// "words-by-node" (Index is the node), "stream" (a per-round delivery
// count; Index is the round, and a missing round counts as -1), or an
// output the primitive names (Index is the node or item).
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
	return fmt.Sprintf("congest: charged %s differs from its reference protocol in %s%s: %d charged, %d simulated",
		e.Op, e.Field, at, e.Charged, e.Simulated)
}

// chargeGuard is the pooled state of the matcheck guard: the reference
// network, a clone of the charged one kept while the topology lasts, and
// the recording buffers. Pooling them keeps a guarded call
// allocation-free.
type chargeGuard struct {
	net       *Network
	before    []int64 // WordsByNode before the charge
	stream    []int64 // the charge's per-round deliveries
	refStream []int64 // the reference run's
	prev      func(round, delivered int)
	record    func(round, delivered int) // bound once: records, then calls prev
	refRecord func(round, delivered int)
}

// Charged runs charge, the charged form of primitive op on nw. In -tags
// matcheck builds it records what charge adds to nw's Stats and, through a
// wrapped OnRound hook, its per-round deliveries. If charge succeeds it
// then calls ref with a clone of nw holding fresh Stats and a reset
// scratch arena: ref runs the primitive's reference protocol there and
// returns the first difference between the protocol's outputs and the
// charged ones as an *ErrChargeMismatch. Charged then compares the rounds,
// messages, words, WordsByNode and delivery stream the two runs added.
// Default builds call charge alone.
func (nw *Network) Charged(op string, charge func() error, ref func(c *Network) error) error {
	if !checkCharge {
		return charge()
	}
	g := nw.charge.guard
	if g == nil {
		g = new(chargeGuard)
		g.record = func(round, delivered int) {
			g.stream = append(g.stream, int64(delivered))
			if g.prev != nil {
				g.prev(round, delivered)
			}
		}
		g.refRecord = func(_, delivered int) { g.refStream = append(g.refStream, int64(delivered)) }
		nw.charge.guard = g
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
	c.scratch.Reset()
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
