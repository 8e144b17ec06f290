package broadcast

import (
	"testing"

	"congestapsp/internal/graph"
)

func TestGatherSumCorrectTotals(t *testing.T) {
	g := graph.RandomConnected(graph.GenConfig{N: 40, Seed: 2, MaxWeight: 4}, 100)
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := 17
	vec := make([][]int64, g.N)
	want := make([]int64, m)
	for v := 0; v < g.N; v++ {
		vec[v] = make([]int64, m)
		for mu := 0; mu < m; mu++ {
			vec[v][mu] = int64(v*31 + mu*7)
			want[mu] += vec[v][mu]
		}
	}
	got, err := GatherSum(nw, tr, vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for mu := 0; mu < m; mu++ {
		if got[mu] != want[mu] {
			t.Errorf("slot %d: %d, want %d", mu, got[mu], want[mu])
		}
	}
}

func TestGatherSumPipelinedRounds(t *testing.T) {
	// Schedule: height + m + 1 rounds exactly (Lemmas A.13/A.14 O(n)).
	L, m := 12, 25
	g := graph.New(L+1, false)
	for i := 0; i < L; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.ResetStats()
	vec := make([][]int64, g.N)
	for v := range vec {
		vec[v] = make([]int64, m)
		for mu := range vec[v] {
			vec[v][mu] = 1
		}
	}
	got, err := GatherSum(nw, tr, vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for mu := range got {
		if got[mu] != int64(g.N) {
			t.Fatalf("slot %d: %d, want %d", mu, got[mu], g.N)
		}
	}
	if want := tr.Height + m + 1; nw.Stats.Rounds != want {
		t.Errorf("rounds = %d, want %d (pipelined schedule)", nw.Stats.Rounds, want)
	}
}

func TestGatherSumUnevenVectors(t *testing.T) {
	// Vectors of differing lengths are padded with zeros.
	g := graph.Ring(graph.GenConfig{N: 6, Seed: 1, MaxWeight: 2})
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([][]int64, g.N)
	vec[0] = []int64{1, 2, 3}
	vec[3] = []int64{10}
	got, err := GatherSum(nw, tr, vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGatherSumEmptyAndValidation(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 4, Seed: 1, MaxWeight: 2})
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := GatherSum(nw, tr, make([][]int64, g.N), nil); err != nil || out != nil {
		t.Errorf("empty vectors: %v, %v", out, err)
	}
	if _, err := GatherSum(nw, tr, make([][]int64, 2), nil); err == nil {
		t.Error("wrong vector count accepted")
	}
}

func TestGatherSumStarShape(t *testing.T) {
	// A star's BFS tree has height 1: every leaf feeds the root directly;
	// the root's incident links each carry one slot per round.
	g := graph.Star(graph.GenConfig{N: 20, Seed: 3, MaxWeight: 2})
	nw := newNet(t, g, 1)
	tr, err := BuildBFS(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([][]int64, g.N)
	m := 9
	for v := range vec {
		vec[v] = make([]int64, m)
		for mu := range vec[v] {
			vec[v][mu] = int64(v)
		}
	}
	got, err := GatherSum(nw, tr, vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantPer int64
	for v := 0; v < g.N; v++ {
		wantPer += int64(v)
	}
	for mu := 0; mu < m; mu++ {
		if got[mu] != wantPer {
			t.Fatalf("slot %d: %d, want %d", mu, got[mu], wantPer)
		}
	}
}
