package qsink

import (
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

func TestFrameQuotaScaleForcesStages(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 36, Seed: 21, MaxWeight: 9}, 110)
	var Q []int
	for v := 0; v < g.N; v += 3 {
		Q = append(Q, v)
	}
	delta := graph.BlockerDelta(g, Q)
	run := func(scale float64) *Result {
		nw, err := congest.NewNetwork(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(nw, g, Q, delta, Params{Scheduler: Frames, FrameQuotaScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(1.0)
	tiny := run(0.02)
	checkExact(t, g, Q, full)
	checkExact(t, g, Q, tiny)
	if tiny.Stats.FrameStages <= full.Stats.FrameStages {
		t.Errorf("scaled quota stages %d not larger than full-quota stages %d",
			tiny.Stats.FrameStages, full.Stats.FrameStages)
	}
	// Lemma 4.8 direction: max |Q_{v,i}| must not grow across stages.
	m := tiny.Stats.FrameQviMax
	for i := 1; i < len(m); i++ {
		if m[i] > m[i-1] {
			t.Errorf("|Qvi| grew across stages: %v", m)
		}
	}
}

func TestQEqualsAllNodes(t *testing.T) {
	// Degenerate stress: every node is a blocker.
	g := graph.RandomConnected(graph.GenConfig{N: 18, Seed: 22, MaxWeight: 9}, 54)
	Q := make([]int, g.N)
	for i := range Q {
		Q[i] = i
	}
	res := run(t, g, Q, Params{Scheduler: RoundRobin})
	checkExact(t, g, Q, res)
}

func TestSingleBlocker(t *testing.T) {
	g := graph.Grid(3, 5, graph.GenConfig{Seed: 23, MaxWeight: 9})
	res := run(t, g, []int{7}, Params{Scheduler: RoundRobin})
	checkExact(t, g, []int{7}, res)
}

func TestHigherBandwidth(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 24, Seed: 24, MaxWeight: 9}, 72)
	Q := []int{1, 8, 15, 22}
	delta := graph.BlockerDelta(g, Q)
	rounds := func(bw int) int {
		nw, err := congest.NewNetwork(g, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(nw, g, Q, delta, Params{Scheduler: RoundRobin})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, g, Q, res)
		return res.Stats.RoundsTotal
	}
	r1, r4 := rounds(1), rounds(4)
	if r4 > r1 {
		t.Errorf("bandwidth 4 slower than 1: %d vs %d", r4, r1)
	}
}

func TestPipelineCongestionAccounting(t *testing.T) {
	// The per-node forwarded counts must sum to at least the seeded
	// message count minus direct-to-root deliveries (every message is
	// forwarded at least once unless its seed is a root child... every
	// seeded message is sent at least once by its origin).
	g := graph.Ring(graph.GenConfig{N: 16, Seed: 25, MaxWeight: 9})
	Q := []int{0, 8}
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(nw, g, Q, graph.BlockerDelta(g, Q), Params{Scheduler: RoundRobin, SkipCase1: true, H2: g.N})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, g, Q, res)
	if res.Stats.PipelineMessages <= 0 {
		t.Error("no pipeline messages on a ring with H2 = n")
	}
}
