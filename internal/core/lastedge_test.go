package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// lastEdgeRun is what one step-8 run leaves behind on a network with fresh
// Stats: the Stats, the (round sequence, delivered) pairs OnRound saw, the
// error and a copy of the last hops.
type lastEdgeRun struct {
	stats  congest.Stats
	stream [][2]int
	err    string
	lh     [][]int
}

// observeLastEdges runs call on nw. With cancelAt >= 0 a context armed on
// nw is canceled from OnRound after round cancelAt, so a longer run stops
// at the top of the next round.
func observeLastEdges(nw *congest.Network, cancelAt int, call func() ([][]int, error)) lastEdgeRun {
	nw.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt >= 0 {
		nw.SetContext(ctx)
	}
	o := lastEdgeRun{stream: [][2]int{}}
	nw.OnRound = func(seq, delivered int) {
		o.stream = append(o.stream, [2]int{seq, delivered})
		if seq == cancelAt {
			cancel()
		}
	}
	lh, err := call()
	nw.OnRound = nil
	nw.SetContext(nil)
	if err != nil {
		o.err = err.Error()
	}
	for _, row := range lh {
		o.lh = append(o.lh, slices.Clone(row))
	}
	o.stats = nw.Stats
	o.stats.WordsByNode = slices.Clone(nw.Stats.WordsByNode)
	return o
}

// lastEdgeFamilies are the generated graphs of the differential test. The
// random families mix in zero-weight edges, so zero-weight plateaus leave
// predecessors to the settle notices. "dag" orients every edge of a random
// graph from the smaller id to the larger: node 0 has only out-arcs, node
// n-1 only in-arcs, and most pairs are unreachable. "multi" has parallel
// edges (a heavier and a zero-weight twin) and antiparallel arcs. A family
// that cannot build n nodes returns nil.
var lastEdgeFamilies = []struct {
	name  string
	build func(n int, directed bool) *graph.Graph
}{
	{"ring", func(n int, directed bool) *graph.Graph {
		if n < 2 {
			return nil
		}
		return graph.Ring(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"star", func(n int, directed bool) *graph.Graph {
		return graph.Star(graph.GenConfig{N: n, Directed: directed, Seed: int64(n), MaxWeight: 3})
	}},
	{"path", func(n int, directed bool) *graph.Graph {
		g := graph.New(n, directed)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, int64(v%3))
		}
		return g
	}},
	{"random", func(n int, directed bool) *graph.Graph {
		return graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: int64(3 * n), MaxWeight: 3}, 2*n-2)
	}},
	{"zeromix", func(n int, directed bool) *graph.Graph {
		return graph.ZeroWeightMix(graph.GenConfig{N: n, Directed: directed, Seed: int64(5 * n), MaxWeight: 4}, 3*n-3)
	}},
	{"dag", func(n int, directed bool) *graph.Graph {
		if !directed {
			return nil
		}
		base := graph.ZeroWeightMix(graph.GenConfig{N: n, Seed: int64(7 * n), MaxWeight: 3}, 3*n-3)
		g := graph.New(n, true)
		for _, e := range base.Edges() {
			g.MustAddEdge(min(e.U, e.V), max(e.U, e.V), e.W)
		}
		return g
	}},
	{"multi", func(n int, directed bool) *graph.Graph {
		base := graph.RandomConnected(graph.GenConfig{N: n, Directed: directed, Seed: int64(11 * n), MaxWeight: 4}, 3*n-3)
		g := graph.New(n, directed)
		for i, e := range base.Edges() {
			g.MustAddEdge(e.U, e.V, e.W)
			if i%3 == 0 {
				g.MustAddEdge(e.U, e.V, e.W+2)
			}
			if i%4 == 1 {
				g.MustAddEdge(e.U, e.V, 0)
			}
			if directed && i%2 == 0 {
				g.MustAddEdge(e.V, e.U, e.W/2)
			}
		}
		return g
	}},
}

// lastEdgeCoverage counts the runs that reached what the differential test
// must reach: a node settled by a notice rather than by the strict-decrease
// rule, runs canceled in a column round and in a drain round, and a run
// that ran out of its round budget.
type lastEdgeCoverage struct {
	noticeSettles, columnCanceled, drainCanceled, overruns int
}

// TestLastEdgeChargeMatchesReference is the differential test of step 8's
// host execution. Over generated rings, stars, paths, random graphs and
// zero-weight mixes, directed and undirected, directed acyclic graphs
// with in-only and out-only nodes and unreachable pairs, and multigraphs
// with parallel and antiparallel arcs, n from 0 to 64 and bandwidths 1-3,
// the host run must
// leave the same last hops, Stats, WordsByNode, OnRound stream and error
// as the reference protocol on the engine. Each run also runs canceled
// after column round 1 and after drain round n+1, and within a budget of
// n+2 rounds, which most runs overrun. The inputs are the graphs' distance
// matrices and a scrambled copy of each that breaks the triangle
// inequality and makes some entries infinite, the diagonal's among them:
// the host must follow the reference on any matrix.
func TestLastEdgeChargeMatchesReference(t *testing.T) {
	var cov lastEdgeCoverage
	for _, fam := range lastEdgeFamilies {
		for _, directed := range []bool{false, true} {
			for _, n := range []int{0, 1, 2, 3, 7, 16, 41, 64} {
				g := fam.build(n, directed)
				if g == nil {
					continue
				}
				dist := graph.FloydWarshall(g)
				for bw := 1; bw <= 3; bw++ {
					name := fmt.Sprintf("%s/directed=%v/n=%d/b=%d", fam.name, directed, n, bw)
					checkLastEdgeCase(t, name, g, dist, bw, &cov)
					checkLastEdgeCase(t, name+"/scrambled", g, scramble(dist), bw, &cov)
				}
			}
		}
	}
	if cov.noticeSettles == 0 || cov.columnCanceled == 0 || cov.drainCanceled == 0 || cov.overruns == 0 {
		t.Errorf("coverage %+v: want notice settles, cancels in a column and a drain round, and an overrun", cov)
	}
}

// checkLastEdgeCase compares the host run with the reference on g at every
// cancel point and budget, and adds what the runs reached to cov.
func checkLastEdgeCase(t *testing.T, name string, g *graph.Graph, dist [][]int64, bw int, cov *lastEdgeCoverage) {
	n := g.N
	net := func() *congest.Network {
		nw, err := congest.NewNetwork(g, bw)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	host, ref := net(), net()
	for _, budget := range []int{8*n + 64, n + 2} {
		for _, cancelAt := range []int{-1, 1, n + 1} {
			got := observeLastEdges(host, cancelAt, func() ([][]int, error) { return resolveLastEdges(host, dist, budget) })
			exp := observeLastEdges(ref, cancelAt, func() ([][]int, error) { return lastEdgesRef(ref, dist, budget) })
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s: budget %d, canceled after round %d:\nhost      %+v\nreference %+v", name, budget, cancelAt, got, exp)
			}
			switch {
			case strings.Contains(got.err, "context canceled") && cancelAt < n:
				cov.columnCanceled++
			case strings.Contains(got.err, "context canceled"):
				cov.drainCanceled++
			case strings.Contains(got.err, "did not terminate"):
				cov.overruns++
			}
			for x, row := range got.lh {
				for t, u := range row {
					if u >= 0 && dist[x][u] == dist[x][t] {
						cov.noticeSettles++ // a zero-weight arc: only a notice settles over it
					}
				}
			}
		}
	}
}

// scramble returns a copy of dist with every seventh entry, in a fixed
// pattern, made infinite, others moved up or down by one or made finite.
func scramble(dist [][]int64) [][]int64 {
	out := make([][]int64, len(dist))
	for x, row := range dist {
		out[x] = slices.Clone(row)
		for t, d := range row {
			switch (x*131 + t*71) % 7 {
			case 0:
				out[x][t] = graph.Inf
			case 1:
				if d < graph.Inf {
					out[x][t] = d + 1
				}
			case 2:
				if d > 0 && d < graph.Inf {
					out[x][t] = d - 1
				}
			case 3:
				if d == graph.Inf {
					out[x][t] = 5
				}
			}
		}
	}
	return out
}

// TestLastEdgeWarmAllocs: on a warm network step 8 allocates only the
// caller-owned LastHop (its flat data, its matrix header and its row
// views). The settle state, the queues and the arc rows are pooled on the
// network. Builds with -tags matcheck also run the reference protocol,
// which builds its own tables on every call, so the pin holds in default
// builds only.
func TestLastEdgeWarmAllocs(t *testing.T) {
	if paranoidGraphCheck { // true exactly in -tags matcheck builds
		t.Skip("the matcheck guard's reference protocol allocates its tables")
	}
	g := graph.ZeroWeightMix(graph.GenConfig{N: 64, Directed: true, Seed: 3, MaxWeight: 9}, 200)
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.FloydWarshall(g)
	run := func() {
		if _, err := ResolveLastEdges(nw, dist); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(5, run); got > 3 {
		t.Errorf("ResolveLastEdges on a warm network: %v allocs per run, want 3 (the LastHop matrix)", got)
	}
}
