// Quickstart: build a small weighted graph, run the paper's deterministic
// O~(n^(4/3)) APSP algorithm on the CONGEST simulator through a warm
// apsp.Runner session, and print distances, a reconstructed path, the
// distributed cost accounting, and a warm re-run with a baseline profile.
package main

import (
	"fmt"
	"log"

	"congestapsp/pkg/apsp"
)

func main() {
	// A small directed road sketch: 6 intersections, weighted one-way
	// streets (weights = travel seconds).
	g := apsp.NewGraph(6, true)
	type edge struct {
		u, v int
		w    int64
	}
	for _, e := range []edge{
		{0, 1, 4}, {1, 2, 3}, {2, 3, 2}, {3, 4, 5}, {4, 5, 1},
		{5, 0, 7}, {0, 2, 9}, {1, 4, 12}, {2, 5, 11}, {3, 0, 6},
	} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			log.Fatal(err)
		}
	}

	// A Runner pins a warm session to the graph: the simulation network is
	// built once here and reused by every Run below.
	r, err := apsp.NewRunner(g)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Run(apsp.Options{}) // default: Deterministic43
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("all-pairs shortest path distances:")
	for x := 0; x < g.N(); x++ {
		for t := 0; t < g.N(); t++ {
			if res.Dist[x][t] >= apsp.Inf {
				fmt.Printf("  %4s", "inf")
			} else {
				fmt.Printf("  %4d", res.Dist[x][t])
			}
		}
		fmt.Println()
	}

	fmt.Printf("\nshortest 0 -> 4 path: %v (distance %d)\n", res.Path(0, 4), res.Dist[0][4])

	s := res.Stats
	fmt.Printf("\nCONGEST cost: %d rounds, %d messages, blocker set size %d (h = %d)\n",
		s.Rounds, s.Messages, s.BlockerSetSize, s.H)
	fmt.Print("per-stage rounds:")
	for _, st := range s.Stages {
		fmt.Printf(" %s=%d", st.Name, st.Rounds)
	}
	fmt.Println()

	// Warm re-run on the same Runner with the PODC'18 baseline profile:
	// same exact distances, different round complexity, no network rebuild.
	base, err := r.Run(apsp.Options{Algorithm: apsp.Deterministic32})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwarm re-run, O~(n^(3/2)) baseline: %d rounds (same distances: %v)\n",
		base.Stats.Rounds, base.Dist[0][4] == res.Dist[0][4])
}
