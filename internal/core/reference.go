package core

import (
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// This file holds step 8's reference protocol: the last-edge neighbor
// exchange as an engine protocol that moves every column value and settle
// notice. ResolveLastEdges executes it on the host and charges it round by
// round instead (lastedge.go); builds with -tags matcheck run this on a
// clone of the network after every resolution and compare the last hops
// here and the Stats, WordsByNode and delivery stream in congest.Charged.
// TestLastEdgeChargeMatchesReference compares both paths over generated
// graphs.

// lastEdgesRef runs the final neighbor exchange on nw's engine within
// budget rounds: node u streams its distance column delta(., u) to every
// neighbor, one source per round; each t combines the received columns
// with its incident edge weights.
func lastEdgesRef(nw *congest.Network, dist [][]int64, budget int) ([][]int, error) {
	g := nw.G
	n := g.N
	lh := mat.NewIntFilled(n, n, -1).RowViews()
	// Per-link state is indexed by (node, link index) through one flat
	// offset table, so the whole pass costs a handful of allocations
	// instead of one per node and per link.
	linkOff := make([]int32, n+1)
	for t := 0; t < n; t++ {
		linkOff[t+1] = linkOff[t] + int32(nw.Degree(t))
	}
	L := int(linkOff[n])
	// Minimum weight per ordered neighbor pair (parallel edges collapsed),
	// stored per link slot so a receiver reads it at its slot m.Link:
	// wmin[linkOff[t]+i] is the min weight of u->t for u =
	// nw.Neighbors(t)[i], or graph.Inf when no such directed edge exists.
	wmin := make([]int64, L)
	for i := range wmin {
		wmin[i] = graph.Inf
	}
	for _, e := range g.Edges() {
		rec := func(u, t int, w int64) {
			if i := nw.LinkIndex(t, u); i >= 0 && w < wmin[int(linkOff[t])+i] {
				wmin[int(linkOff[t])+i] = w
			}
		}
		rec(e.U, e.V, e.W)
		if !g.Directed {
			rec(e.V, e.U, e.W)
		}
	}
	// Settle-wave: a node t settles its predecessor for source x either
	// immediately (some in-neighbor u composes with a strictly smaller
	// distance — strict decrease can never cycle) or upon hearing that an
	// equal-distance zero-weight in-neighbor has itself settled, which
	// makes the predecessor graph acyclic even across zero-weight
	// plateaus. Columns are streamed one source per round; settle
	// announcements drain one per round. O(n) rounds total.
	const (
		kindCol    uint8 = 50
		kindSettle uint8 = 51
	)
	// nbrDist[(linkOff[t]+i)*n + x]: delta(x, u) as received at t on its
	// link slot i, from u = nw.Neighbors(t)[i].
	nbrDist := make([]int64, L*n)
	for i := range nbrDist {
		nbrDist[i] = graph.Inf
	}
	settledM := make([]bool, n*n) // settled[t*n+x]
	settled := make([][]bool, n)
	queueArena := make([]int32, n*n) // each t announces each source at most once
	queue := make([][]int32, n)      // queue[t]: sources to announce
	head := make([]int32, n)
	for t := 0; t < n; t++ {
		settled[t] = settledM[t*n : (t+1)*n : (t+1)*n]
		queue[t] = queueArena[t*n : t*n : (t+1)*n]
	}
	settle := func(t, x int, pred int) {
		settled[t][x] = true
		if pred >= 0 {
			lh[x][t] = pred
		}
		queue[t] = append(queue[t], int32(x))
	}
	p := congest.ProtoFunc(func(t, round int, in []congest.Message, send func(congest.Message)) bool {
		lastCol := -1
		base := int(linkOff[t])
		for _, m := range in {
			if m.Kind == kindCol {
				nbrDist[(base+int(m.Link))*n+int(m.A)] = m.B
				lastCol = int(m.A)
			}
		}
		// Settle announcements, read after every column value of the round.
		// The inbox is sorted by sender id, so the first composing announcer
		// of a source is the min-id one, and it settles the source.
		for _, m := range in {
			if m.Kind != kindSettle {
				continue
			}
			x := int(m.A)
			if settled[t][x] {
				continue
			}
			dxt := dist[x][t]
			if dxt >= graph.Inf {
				continue
			}
			li := base + int(m.Link)
			w := wmin[li]
			du := nbrDist[li*n+x]
			if w >= graph.Inf || du >= graph.Inf || du+w != dxt {
				continue
			}
			settle(t, x, int(m.From))
		}
		// All neighbor values for source lastCol just arrived: try the
		// strict-decrease settlement.
		if x := lastCol; x >= 0 {
			if t == x {
				settle(t, x, -1)
			} else if dxt := dist[x][t]; dxt < graph.Inf {
				best := -1
				for i, u := range nw.Neighbors(t) {
					w := wmin[base+i]
					if w >= graph.Inf || w == 0 {
						continue
					}
					du := nbrDist[(base+i)*n+x]
					if du < graph.Inf && du+w == dxt && (best == -1 || u < best) {
						best = u
					}
				}
				if best >= 0 {
					settle(t, x, best)
				}
			}
		}
		// A round carries at most one column value and one settle notice
		// per link, one word each. budgetWords keeps the pair within the
		// bandwidth: at bandwidth 1 a round that streams a column value
		// holds its settle notice back to a later round.
		budgetWords := nw.Bandwidth
		deg := nw.Degree(t)
		if round < n && budgetWords > 0 {
			x := round
			if dxt := dist[x][t]; dxt < graph.Inf {
				for i := 0; i < deg; i++ {
					send(congest.Message{Link: int32(i), Kind: kindCol, A: int64(x), B: dxt})
				}
				budgetWords--
			}
		}
		if int(head[t]) < len(queue[t]) && budgetWords > 0 {
			x := queue[t][head[t]]
			head[t]++
			for i := 0; i < deg; i++ {
				send(congest.Message{Link: int32(i), Kind: kindSettle, A: int64(x)})
			}
		}
		return round >= n && int(head[t]) >= len(queue[t])
	})
	if _, err := nw.Run(p, budget); err != nil {
		return nil, err
	}
	return lh, nil
}

// checkLastEdges runs the reference exchange on ref, the guard's clone,
// and returns the first entry at which the host's last hops, got, differ
// from the reference's, as an *ErrChargeMismatch whose Index is x*n+t.
func checkLastEdges(ref *congest.Network, dist [][]int64, budget int, got [][]int) error {
	want, err := lastEdgesRef(ref, dist, budget)
	if err != nil {
		return err
	}
	n := len(want)
	for x, row := range want {
		for t, p := range row {
			if got[x][t] != p {
				return &congest.ErrChargeMismatch{Op: "lastedge", Field: "last-hop", Index: x*n + t,
					Charged: int64(got[x][t]), Simulated: int64(p)}
			}
		}
	}
	return nil
}
