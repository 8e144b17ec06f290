package blocker

import (
	"fmt"
	"math/rand"
	"slices"

	"congestapsp/internal/broadcast"
	"congestapsp/internal/pairwise"
)

// selectGoodSet implements Steps 11-14 of Algorithm 2: choose a good set A
// (Definition 3.1) of V_i nodes, either by derandomized exhaustive search
// over the pairwise-independent sample space (Algorithm 7, Deterministic
// mode) or by repeated pairwise-independent sampling (Randomized mode).
//
// stageHi is (1+eps)^i, the stage's score upper bound; fallbackBest is the
// max-scoreij node used when no enumerated point is good (a progress
// guarantee the enumerated linear slice of the space cannot give by itself;
// see DESIGN.md). The returned slice is pooled (consumed by commit before
// the next selection).
func (st *state) selectGoodSet(stage, phase int, stageHi float64, pijSize int, fallbackBest int) ([]int, error) {
	onePlusEps := 1 + st.par.Eps
	prob := st.par.Delta
	for k := 0; k < phase; k++ {
		prob /= onePlusEps
	}
	space, err := pairwise.NewAffineSpace(st.n, prob)
	if err != nil {
		return nil, err
	}

	if st.par.Mode == Randomized {
		return st.selectGoodSetRandomized(space, stageHi, pijSize, fallbackBest)
	}

	// Algorithm 7, deterministic exhaustive search.
	var pts []pairwise.Point
	if st.par.UseFullSpace {
		pts = space.FullEnum()
	} else {
		pts = space.LinearEnum(sampleMult * st.n)
	}
	m := len(pts)

	// Step 3 (Algorithm 7): each node v computes its sigma contributions
	// for every sample point locally (free local computation), namely the
	// number of its paths in P_i (resp. P_ij) covered by A_mu, from the
	// V_i nodes among itself and its ancestors. Then the
	// nu totals are aggregated at the leader by the pipelined Algorithms
	// 11 and 12 (O(n + m) rounds each). The two n x m count matrices live
	// in one pooled arena, re-carved per call (m varies with the phase).
	if cap(st.nuBuf) < 2*st.n*m {
		st.nuBuf = make([]int64, 2*st.n*m)
	}
	st.nuBuf = st.nuBuf[:2*st.n*m]
	clear(st.nuBuf)
	if cap(st.nuPi) < st.n {
		st.nuPi = make([][]int64, st.n)
		st.nuPij = make([][]int64, st.n)
	}
	st.nuPi = st.nuPi[:st.n]
	st.nuPij = st.nuPij[:st.n]
	for v := 0; v < st.n; v++ {
		st.nuPi[v] = st.nuBuf[v*m : (v+1)*m : (v+1)*m]
		st.nuPij[v] = st.nuBuf[(st.n+v)*m : (st.n+v+1)*m : (st.n+v+1)*m]
	}
	for i := range st.coll.Sources {
		base := int(st.leafOff[i])
		for k, v32 := range st.coll.HLeaves(i) {
			v := int(v32)
			b := int(st.beta[base+k])
			if st.coll.Removed[i][v] || b == 0 {
				continue // a path of P_i has a V_i node; P_ij is within P_i
			}
			inPij := b >= st.pijLo
			vi := st.viPath(i, v32)
			for mu, pt := range pts {
				if slices.ContainsFunc(vi, func(u int32) bool { return space.Bit(int(u), pt.A, pt.B) }) {
					st.nuPi[v][mu]++
					if inPij {
						st.nuPij[v][mu]++
					}
				}
			}
		}
	}
	totPi, err := broadcast.GatherSum(st.nw, st.tree, st.nuPi, st.totPi)
	if err != nil {
		return nil, err
	}
	st.totPi = totPi
	totPij, err := broadcast.GatherSum(st.nw, st.tree, st.nuPij, st.totPij)
	if err != nil {
		return nil, err
	}
	st.totPij = totPij

	// Step 4: the leader picks the first sample point that is good. |A_mu|
	// is global knowledge (V_i and the sample space are shared), so only
	// the chosen index needs broadcasting (Step 5; O(n) rounds).
	goodMu := -1
	for mu := 0; mu < m; mu++ {
		sz := st.setSize(space, pts[mu])
		if st.isGood(sz, totPi[mu], totPij[mu], stageHi, pijSize) {
			if goodMu < 0 {
				goodMu = mu
			}
			st.stats.GoodPoints++ // keep counting for the Lemma 3.8 series
		}
	}
	st.stats.PointsScanned += int64(m)
	// Step 5: the leader broadcasts goodMu, one item.
	if err := broadcast.BroadcastCount(st.nw, st.tree, 1); err != nil {
		return nil, err
	}
	if goodMu < 0 {
		// No enumerated point was good: fall back to the highest-coverage
		// single node, which always makes progress.
		st.stats.FallbackSteps++
		if fallbackBest < 0 {
			return nil, fmt.Errorf("blocker: no good set and no fallback node")
		}
		return append(st.members[:0], fallbackBest), nil
	}
	st.stats.GoodSetSelections++
	return st.setMembers(space, pts[goodMu]), nil
}

// selectGoodSetRandomized implements Steps 12-14 as written: draw a
// pairwise-independent A, verify goodness (one aggregation + broadcast per
// attempt), retry on failure. Lemma 3.8 gives success probability >= 1/8
// per attempt; a deterministic fallback guards the tail.
func (st *state) selectGoodSetRandomized(space *pairwise.AffineSpace, stageHi float64, pijSize int, fallbackBest int) ([]int, error) {
	rng := rand.New(rand.NewSource(st.par.Seed + int64(st.stats.SelectionSteps)*7919))
	const maxAttempts = 64
	fieldSize := space.F.Size()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pt := pairwise.Point{A: rng.Uint64() % fieldSize, B: rng.Uint64() % fieldSize}
		members := st.setMembers(space, pt)
		// Step 13: members broadcast their ids (O(n) rounds, Lemma A.2).
		inA := st.inZ // borrow the commit scratch: rewritten there anyway
		clear(inA)
		for _, v := range members {
			inA[v] = true
		}
		for v := range st.cnt {
			st.cnt[v] = b2i(inA[v])
		}
		if err := broadcast.AllToAllCount(st.nw, st.tree, st.cnt); err != nil {
			return nil, err
		}
		// Goodness check: per-leaf coverage counts aggregated to the leader
		// (two slots), verdict broadcast back.
		if cap(st.nuBuf) < 2*st.n {
			st.nuBuf = make([]int64, 2*st.n)
		}
		st.nuBuf = st.nuBuf[:2*st.n]
		clear(st.nuBuf)
		if cap(st.nuPi) < st.n {
			st.nuPi = make([][]int64, st.n)
			st.nuPij = make([][]int64, st.n)
		}
		cov := st.nuPi[:st.n]
		for v := 0; v < st.n; v++ {
			cov[v] = st.nuBuf[2*v : 2*v+2 : 2*v+2]
		}
		for i := range st.coll.Sources {
			base := int(st.leafOff[i])
			for k, v32 := range st.coll.HLeaves(i) {
				v := int(v32)
				b := int(st.beta[base+k])
				if st.coll.Removed[i][v] || b == 0 {
					continue // a path of P_i has a V_i node; P_ij is within P_i
				}
				if slices.ContainsFunc(st.viPath(i, v32), func(u int32) bool { return inA[u] }) {
					cov[v][0]++
					if b >= st.pijLo {
						cov[v][1]++
					}
				}
			}
		}
		tot, err := broadcast.GatherSum(st.nw, st.tree, cov, st.totPi)
		if err != nil {
			return nil, err
		}
		st.totPi = tot
		good := st.isGood(len(members), tot[0], tot[1], stageHi, pijSize)
		// The leader broadcasts the verdict, one item.
		if err := broadcast.BroadcastCount(st.nw, st.tree, 1); err != nil {
			return nil, err
		}
		if good {
			st.stats.GoodSetSelections++
			return members, nil
		}
		st.stats.RandomRetries++
	}
	st.stats.FallbackSteps++
	if fallbackBest < 0 {
		return nil, fmt.Errorf("blocker: randomized selection exhausted retries with no fallback")
	}
	return append(st.members[:0], fallbackBest), nil
}

// isGood evaluates Definition 3.1 for a set of size sz covering covPi
// paths of P_i and covPij paths of P_ij.
func (st *state) isGood(sz int, covPi, covPij int64, stageHi float64, pijSize int) bool {
	if sz == 0 {
		return false
	}
	d, e := st.par.Delta, st.par.Eps
	needPi := float64(sz) * stageHi * (1 - 3*d - e)
	needPij := d / 2 * float64(pijSize)
	return float64(covPi) >= needPi && float64(covPij) >= needPij
}

// setSize returns |A_mu| for a sample point: the number of V_i nodes the
// point selects (global knowledge at every node).
func (st *state) setSize(space *pairwise.AffineSpace, pt pairwise.Point) int {
	sz := 0
	for v := 0; v < st.n; v++ {
		if st.inVi[v] && space.Bit(v, pt.A, pt.B) {
			sz++
		}
	}
	return sz
}

// setMembers lists the V_i nodes selected by a sample point, into the
// pooled members buffer (valid until the next selection).
func (st *state) setMembers(space *pairwise.AffineSpace, pt pairwise.Point) []int {
	out := st.members[:0]
	for v := 0; v < st.n; v++ {
		if st.inVi[v] && space.Bit(v, pt.A, pt.B) {
			out = append(out, v)
		}
	}
	st.members = out
	return out
}
