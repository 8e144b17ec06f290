package blocker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
)

// TestKeptStateMatchesScratch is the differential test of the set cover's
// kept knowledge. Each seed generates a graph (a ring, a star, a random
// graph or disjoint paths, directed or undirected, n 2-64), a hop bound
// H of 1-4 and a sequential or source-sharded network. On it the state is
// driven by hand through generated steps, each with a drawn stage bound
// for V_i and P_ij bound and a commit of one to three arbitrary nodes
// (roots, nodes outside V_i and a node with its parent included), and
// then through the real selection loop with delta = 1/2, Deterministic
// and Randomized, whose good sets commit several nodes at once. After
// every commit the kept score, the beta of every alive full-length leaf,
// the beta histogram, |P_ij| at every phase bound, scoreij, the per-tree
// P_ij counts, the per-node beta item counts and every kept walk with its
// depth histogram must equal a recomputation from the collection and V_i.
// Each run is made twice, adding each charged run's words at once and
// counting them (-tags matcheck builds add them at once both times), and
// after every commit the Stats of the two, counted words added in, must
// be equal.
func TestKeptStateMatchesScratch(t *testing.T) {
	seeds := 150
	if testing.Short() || congest.ChargesChecked {
		seeds = 30 // -tags matcheck runs every charged run's reference too
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(63)
		h := 1 + rng.Intn(4)
		directed := rng.Intn(2) == 0
		parallel := rng.Intn(2) == 0
		cfg := graph.GenConfig{N: n, Directed: directed, Seed: seed, MaxWeight: 4}
		var g *graph.Graph
		family := []string{"ring", "star", "random", "paths"}[seed%4]
		switch family {
		case "ring":
			g = graph.Ring(cfg)
		case "star":
			g = graph.Star(cfg)
		case "random":
			g = graph.RandomConnected(cfg, 2*n)
		default:
			g = graph.DisjointPaths(max(1, n/(h+2)), h+1, 1000, cfg)
		}
		name := fmt.Sprintf("seed %d: %s n=%d H=%d directed=%v parallel=%v", seed, family, g.N, h, directed, parallel)
		build := func() (*csssp.Collection, *congest.Network) {
			nw, err := congest.NewNetwork(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			nw.Parallel = parallel
			srcs := make([]int, g.N)
			for i := range srcs {
				srcs[i] = i
			}
			coll, err := csssp.Build(nw, g, srcs, h, bford.Out)
			if err != nil {
				t.Fatal(err)
			}
			return coll, nw
		}
		runs := []struct {
			name string
			run  func(st *state, check func()) error
		}{
			{"generated commits", func(st *state, check func()) error {
				return driveCommits(st, rand.New(rand.NewSource(seed)), check)
			}},
		}
		for _, par := range []Params{{Mode: Deterministic, Delta: 0.5}, {Mode: Randomized, Delta: 0.5, Seed: seed}} {
			runs = append(runs, struct {
				name string
				run  func(st *state, check func()) error
			}{par.Mode.String(), func(st *state, check func()) error {
				st.par = par.withDefaults()
				return st.cover(check)
			}})
		}
		for _, r := range runs {
			var stats [2][]congest.Stats
			for e, eager := range []bool{true, false} {
				coll, nw := build()
				st := newState()
				st.reinit(nw, coll, Params{}.withDefaults())
				st.eager = eager
				steps := 0
				err := r.run(st, func() {
					checkKnowledge(t, fmt.Sprintf("%s: %s: commit %d", name, r.name, steps), st)
					for i := range coll.Sources {
						st.flushWords(nw, i)
					}
					s := nw.Stats
					s.WordsByNode = slices.Clone(s.WordsByNode)
					stats[e] = append(stats[e], s)
					steps++
				})
				if err != nil {
					t.Fatalf("%s: %s: %v", name, r.name, err)
				}
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Fatalf("%s: %s: Stats with the words added run by run differ from the counted ones", name, r.name)
			}
		}
	}
}

// driveCommits takes st, fresh from reinit, through the set cover's first
// passes and then through generated selection steps until no full-length
// path is left or 12 steps are done, calling check after each commit.
func driveCommits(st *state, rng *rand.Rand, check func()) error {
	nw, coll, n := st.nw, st.coll, st.n
	var err error
	if st.tree, err = broadcast.BuildBFS(nw, 0); err != nil {
		return err
	}
	if err := nw.ShardRuns(coll.NumTrees(), st.ancestorsRun); err != nil {
		return err
	}
	if err := st.chargeScores(); err != nil {
		return err
	}
	for step := 0; step < 12 && countFullPaths(coll) > 0; step++ {
		lo := float64(1 + rng.Intn(int(slices.Max(st.score))+1))
		st.rebuildVi(lo)
		st.setBound(1 + rng.Intn(st.h+1))
		if err := st.chargeBetas(); err != nil {
			return err
		}
		if err := st.chargeScoreij(); err != nil {
			return err
		}
		chosen := []int{rng.Intn(n)}
		if i := rng.Intn(coll.NumTrees()); rng.Intn(2) == 0 && coll.Parent[i][chosen[0]] >= 0 {
			chosen = append(chosen, coll.Parent[i][chosen[0]])
		}
		if rng.Intn(3) == 0 {
			chosen = append(chosen, coll.Sources[rng.Intn(coll.NumTrees())])
		}
		if err := st.commit(chosen); err != nil {
			return err
		}
		st.rebuildVi(lo)
		check()
	}
	return nil
}

// checkKnowledge fails unless st's kept knowledge equals its recomputation
// from the collection's Removed bits and st.inVi.
func checkKnowledge(t *testing.T, name string, st *state) {
	t.Helper()
	coll, n := st.coll, st.n
	score, scoreij := make([]int64, n), make([]int64, n)
	betaCnt := make([]int32, n)
	hist := make([]int64, st.h+1)
	pijTree := make([]int32, coll.NumTrees())
	var betas []int32 // per alive leaf, in tree and HLeaves order
	var fresh csssp.TreeWalk
	for i, root := range coll.Sources {
		parent := coll.Parent[i]
		for k, v := range coll.HLeaves(i) {
			if coll.Removed[i][v] {
				continue
			}
			b := int32(0)
			for u := int(v); u != root; u = parent[u] {
				score[u]++
				if st.inVi[u] {
					b++
				}
			}
			if got := st.beta[int(st.leafOff[i])+k]; got != b {
				t.Fatalf("%s: tree %d leaf %d: kept beta %d, recomputed %d", name, i, v, got, b)
			}
			betas = append(betas, b)
			hist[b]++
			if b > 0 {
				betaCnt[v]++
			}
			if int(b) >= st.pijLo {
				pijTree[i]++
				for u := int(v); u != root; u = parent[u] {
					scoreij[u]++
				}
			}
		}
		coll.Walk(&fresh, i)
		if w := st.walks.Tree(i); !slices.Equal(w.Nodes, fresh.Nodes) || !slices.Equal(w.Kids, fresh.Kids) || !slices.Equal(w.Hist, fresh.Hist) {
			t.Fatalf("%s: kept walk of tree %d is %v %v %v, a fresh walk %v %v %v", name, i, w.Nodes, w.Kids, w.Hist, fresh.Nodes, fresh.Kids, fresh.Hist)
		}
	}
	for _, c := range []struct {
		what      string
		kept, got any
	}{
		{"score", st.score, score},
		{"scoreij", st.scoreij, scoreij},
		{"beta item counts", st.betaCnt, betaCnt},
		{"beta histogram", st.hist, hist},
		{"per-tree P_ij counts", st.pijTree, pijTree},
	} {
		if !reflect.DeepEqual(c.kept, c.got) {
			t.Fatalf("%s: kept %s %v, recomputed %v", name, c.what, c.kept, c.got)
		}
	}
	for j := 1; j <= st.maxPhase(); j++ {
		phaseLo := math.Pow(1+st.par.Eps, float64(j-1))
		want := 0
		for _, b := range betas {
			if float64(b) >= phaseLo {
				want++
			}
		}
		lo := st.pijLo
		st.pijLo = st.phaseBound(j)
		got := st.pijSize()
		st.pijLo = lo
		if got != want {
			t.Fatalf("%s: phase %d: |P_ij| %d from the histogram, %d recomputed", name, j, got, want)
		}
	}
}
