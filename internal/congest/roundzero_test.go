package congest

import (
	"slices"
	"testing"

	"congestapsp/internal/graph"
)

// relay is a token relay on a path: the source sends a hop budget to both
// neighbors in round 0, and every node that receives a budget passes the
// rest on away from the sender. Only the source acts spontaneously, so
// every step returns true. It counts the steps each node takes. An inner
// node v of the path has links v-1 (slot 0) and v+1 (slot 1), so "away
// from the sender" is the slot the message did not arrive on.
type relay struct {
	src, hops int
	steps     []int
}

func (p *relay) Step(v, round int, in []Message, send func(Message)) bool {
	p.steps[v]++
	if round == 0 && v == p.src {
		send(Message{Link: 0, A: int64(p.hops - 1)})
		send(Message{Link: 1, A: int64(p.hops - 1)})
	}
	for _, m := range in {
		if next := 2*v - int(m.From); m.A > 0 && next >= 0 && next < len(p.steps) {
			send(Message{Link: 1 - m.Link, A: m.A - 1})
		}
	}
	return true
}

// TestRunFromStepsOnlyReachedNodes starts a relay on a 4096-node path from
// its source alone: only the source and the 2*hops nodes its mail reaches
// may step, each once, and Stats must equal those of a start from every
// node, under both schedules.
func TestRunFromStepsOnlyReachedNodes(t *testing.T) {
	const n, src, hops = 4096, 2000, 50
	g := graph.New(n, false)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	for _, fixed := range []bool{false, true} {
		sparse, err := NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := &relay{src: src, hops: hops, steps: make([]int, n)}
		if _, err := sparse.RunFrom(p, []int32{src}, hops+2, fixed); err != nil {
			t.Fatal(err)
		}
		for v, got := range p.steps {
			want := 0
			if v >= src-hops && v <= src+hops {
				want++
			}
			if checkRoundZero && v != src {
				want++ // the guard steps each left-out node once
			}
			if got != want {
				t.Fatalf("fixed=%v: node %d stepped %d times, want %d", fixed, v, got, want)
			}
		}

		q := &relay{src: src, hops: hops, steps: make([]int, n)}
		if fixed {
			err = full.RunFor(q, hops+2)
		} else {
			_, err = full.Run(q, hops+2)
		}
		if err != nil {
			t.Fatal(err)
		}
		a, b := sparse.Stats, full.Stats
		if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Words != b.Words || !slices.Equal(a.WordsByNode, b.WordsByNode) {
			t.Errorf("fixed=%v: sparse start stats {%d %d %d} differ from all-node start {%d %d %d}",
				fixed, a.Rounds, a.Messages, a.Words, b.Rounds, b.Messages, b.Words)
		}
	}
}

func TestRunFromRejectsUnsortedStart(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	p := ProtoFunc(func(int, int, []Message, func(Message)) bool { return true })
	for _, start := range [][]int32{{1, 0}, {1, 1}, {3}, {-1}} {
		if _, err := nw.RunFrom(p, start, 2, false); err == nil {
			t.Errorf("round-0 set %v accepted", start)
		}
	}
}
