package bford

import "congestapsp/internal/congest"

// This file holds the reference protocols of a run: the relaxation and the
// confirmation wave as engine protocols that move every message. runBF
// executes both on the host and charges them round by round instead
// (bford.go); builds with -tags matcheck run these on a clone of the
// network after every run and compare the labels here and the Stats,
// WordsByNode and delivery stream in congest.Charged. The package tests
// compare both paths over generated graphs and inits.

const (
	kindLabel   uint8 = 7
	kindFinal   uint8 = 8
	kindConfirm uint8 = 9
)

// refState is a network's pooled state for the reference protocols: the
// round-0 set, the confirmation wave's per-link neighbor labels (aligned
// with relAdj.w) and the two protocol objects.
type refState struct {
	start     []int32
	nbrLabel  [][2]int64
	haveLabel []bool
	main      mainProto
	wave      waveProto
}

// relaxRef runs the relaxation on nw's engine from the labels prepare set
// in rs.res, starting from the seeds.
func (rs *runState) relaxRef(nw *congest.Network, ra *relAdj, hops int) error {
	ref := &rs.ref
	ref.start = ref.start[:0]
	for v, h := range rs.res.Hops {
		if h == 0 {
			ref.start = append(ref.start, int32(v))
		}
	}
	ref.main = mainProto{res: &rs.res, ra: ra, hops: hops}
	_, err := nw.RunFrom(&ref.main, ref.start, hops+1, true)
	return err
}

// waveRef runs the confirmation wave on nw's engine over the final labels
// in rs.res, starting from the reached nodes, and clears the parents the
// wave leaves unconfirmed.
func (rs *runState) waveRef(nw *congest.Network, ra *relAdj, hops int) error {
	ref := &rs.ref
	rs.res.Confirmed = rs.confirmed
	clear(rs.res.Confirmed)
	ref.nbrLabel = congest.Grow(ref.nbrLabel, len(ra.w))
	ref.haveLabel = congest.Grow(ref.haveLabel, len(ra.w))
	ref.start = ref.start[:0]
	for v, h := range rs.res.Hops {
		if h >= 0 {
			ref.start = append(ref.start, int32(v))
		}
	}
	ref.wave = waveProto{rs: rs, ra: ra}
	if _, err := nw.RunFrom(&ref.wave, ref.start, hops+2, true); err != nil {
		return err
	}
	unconfirm(&rs.res)
	return nil
}

// checkRelax runs the reference relaxation from init on ref, the guard's
// clone, and compares its labels with the host's, got.
func checkRelax(ref *congest.Network, init []int64, hops int, mode Mode, got *Result) error {
	rs, ra, err := prepare(ref, ref.G, init, mode)
	if err != nil {
		return err
	}
	if err := rs.relaxRef(ref, ra, hops); err != nil {
		return err
	}
	return sameResult("bford-relax", got, &rs.res)
}

// checkWave runs the reference wave on ref and compares the result with
// the host's, got. It starts from the labels checkRelax left in ref's
// pooled state, which equal the host's as the wave found them: the two
// guarded calls of one run go to the same clone, one after the other.
func checkWave(ref *congest.Network, ra *relAdj, hops int, got *Result) error {
	rs := congest.ScratchState(ref.Scratch(), stateKey{}, func() *runState { return new(runState) })
	if err := rs.waveRef(ref, ra, hops); err != nil {
		return err
	}
	return sameResult("bford-wave", got, &rs.res)
}

// sameResult returns the first node at which got and want differ, in
// Dist, Hops, Parent or (when want has it) Confirmed, as an
// *ErrChargeMismatch of op.
func sameResult(op string, got, want *Result) error {
	mismatch := func(field string, v int, charged, simulated int64) error {
		return &congest.ErrChargeMismatch{Op: op, Field: field, Index: v, Charged: charged, Simulated: simulated}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for v := range want.Dist {
		switch {
		case got.Dist[v] != want.Dist[v]:
			return mismatch("dist", v, got.Dist[v], want.Dist[v])
		case got.Hops[v] != want.Hops[v]:
			return mismatch("hops", v, int64(got.Hops[v]), int64(want.Hops[v]))
		case got.Parent[v] != want.Parent[v]:
			return mismatch("parent", v, int64(got.Parent[v]), int64(want.Parent[v]))
		case want.Confirmed != nil && got.Confirmed[v] != want.Confirmed[v]:
			return mismatch("confirmed", v, b2i(got.Confirmed[v]), b2i(want.Confirmed[v]))
		}
	}
	return nil
}

// mainProto is the relaxation schedule as a reusable protocol object (one
// per pooled runState, so repeated runs allocate nothing).
type mainProto struct {
	res  *Result
	ra   *relAdj
	hops int
}

// Step implements congest.Proto: relax labels received this round (sent by
// neighbors last round), then forward our label in the same round if it
// improved, so each hop costs one round. Relaxation is order-independent;
// parent tie-breaks are resolved explicitly by (dist, hops, id). Only the
// seeds act spontaneously (round 0), so every node returns true.
func (p *mainProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	res, ra := p.res, p.ra
	improved := round == 0 && res.Hops[v] == 0 // seeds announce at round 0
	off := int(ra.off[v])
	for _, m := range in {
		if m.Kind != kindLabel {
			continue
		}
		w := ra.w[off+int(m.Link)]
		if w < 0 {
			continue // label from a neighbor with no relaxation arc to v
		}
		nd, nh, from := m.A+w, int(m.B)+1, int(m.From)
		if better(nd, nh, from, res.Dist[v], res.Hops[v], res.Parent[v]) {
			res.Dist[v], res.Hops[v], res.Parent[v] = nd, nh, from
			improved = true
		}
	}
	if improved && round < p.hops {
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindLabel, A: res.Dist[v], B: int64(res.Hops[v])})
		}
	}
	return true
}

// waveProto is the tree-confirmation wave (see runBF for the protocol's
// correctness argument).
type waveProto struct {
	rs *runState
	ra *relAdj
}

// Step implements congest.Proto. Reached nodes announce in round 0 and
// seeds confirm in round 1; every later confirmation answers a confirmation
// received in the same round, so only the seeds stay live through round 1.
func (p *waveProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	ref, ra := &p.rs.ref, p.ra
	res := &p.rs.res
	off := int(ra.off[v])
	for _, m := range in {
		li := off + int(m.Link)
		if ra.w[li] < 0 {
			continue // no arc from the sender: it is not a notifier of v
		}
		switch m.Kind {
		case kindFinal:
			ref.nbrLabel[li] = [2]int64{m.A, m.B}
			ref.haveLabel[li] = true
		case kindConfirm:
			if res.Hops[v] != round-1 || !ref.haveLabel[li] {
				continue
			}
			lbl, from := ref.nbrLabel[li], int(m.From)
			// The inbox is sorted by sender id, so the first composing
			// sender is the smallest; the from < Parent check keeps it.
			if lbl[0]+ra.w[li] == res.Dist[v] && int(lbl[1])+1 == res.Hops[v] {
				if !res.Confirmed[v] || from < res.Parent[v] {
					res.Confirmed[v] = true
					res.Parent[v] = from
				}
			}
		}
	}
	switch {
	case round == 0:
		if res.Hops[v] >= 0 {
			for _, li := range ra.notify(v) {
				send(congest.Message{Link: li, Kind: kindFinal, A: res.Dist[v], B: int64(res.Hops[v])})
			}
		}
	case round == 1 && res.Hops[v] == 0:
		res.Confirmed[v] = true
		res.Parent[v] = -1
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindConfirm})
		}
	case round >= 2 && res.Confirmed[v] && res.Hops[v] == round-1:
		for _, li := range ra.notify(v) {
			send(congest.Message{Link: li, Kind: kindConfirm})
		}
	}
	return round >= 1 || res.Hops[v] != 0
}
