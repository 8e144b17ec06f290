// Roadnetwork: the paper's motivating distributed-routing scenario on a
// grid "city": every intersection (node) ends up knowing its distance from
// every other intersection, computed purely by rounds of message passing —
// no node ever sees the whole map. The example compares the paper's
// deterministic pipeline against the O~(n^(3/2)) deterministic baseline and
// prints the round savings.
package main

import (
	"fmt"
	"log"

	"congestapsp/pkg/apsp"
)

func main() {
	const rows, cols = 6, 8
	g := apsp.GridGraph(rows, cols, apsp.GenOptions{Seed: 2024, MaxWeight: 30})
	n := g.N()
	fmt.Printf("city grid: %dx%d intersections (n=%d, m=%d edges)\n\n", rows, cols, n, g.M())

	fast, err := apsp.Run(g, apsp.Options{Algorithm: apsp.Deterministic43})
	if err != nil {
		log.Fatal(err)
	}
	base, err := apsp.Run(g, apsp.Options{Algorithm: apsp.Deterministic32})
	if err != nil {
		log.Fatal(err)
	}

	// Sanity: the two deterministic algorithms must agree everywhere.
	for x := 0; x < n; x++ {
		for t := 0; t < n; t++ {
			if fast.Dist[x][t] != base.Dist[x][t] {
				log.Fatalf("algorithms disagree at (%d,%d)", x, t)
			}
		}
	}

	corner := func(r, c int) int { return r*cols + c }
	a, b := corner(0, 0), corner(rows-1, cols-1)
	fmt.Printf("corner-to-corner route %d -> %d: distance %d\n", a, b, fast.Dist[a][b])
	fmt.Printf("route: %v\n\n", fast.Path(a, b))

	fmt.Printf("%-28s %10s %12s %8s\n", "algorithm", "rounds", "messages", "|Q|")
	fmt.Printf("%-28s %10d %12d %8d\n", "deterministic n^(4/3) (paper)", fast.Stats.Rounds, fast.Stats.Messages, fast.Stats.BlockerSetSize)
	fmt.Printf("%-28s %10d %12d %8d\n", "deterministic n^(3/2) [2]", base.Stats.Rounds, base.Stats.Messages, base.Stats.BlockerSetSize)
	ratio := float64(base.Stats.Rounds) / float64(fast.Stats.Rounds)
	fmt.Printf("\nround ratio baseline/paper: %.2fx\n", ratio)
	if ratio < 1 {
		fmt.Println("(at this small n the baseline's lighter polylog constants win;")
		fmt.Println(" the paper's asymptotic advantage shows in the component scaling —")
		fmt.Println(" see `go run ./cmd/experiment -lemmas table1`)")
	}
}
