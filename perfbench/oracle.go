package main

import "congestapsp/pkg/apsp"

// The oracles below read a graph only through Edges, so the benchmark's own
// copy of a graph is an *apsp.Graph kept in step with the writes it sends
// by apsp.Graph.ApplyUpdate, which addresses edges exactly as
// Runner.ApplyUpdates and apspd do.

// floydWarshall returns the n x n distance matrix of g, row-major, with
// apsp.Inf for unreachable pairs.
func floydWarshall(g *apsp.Graph) []int64 {
	n := g.N()
	d := make([]int64, n*n)
	for i := range d {
		d[i] = apsp.Inf
	}
	for x := 0; x < n; x++ {
		d[x*n+x] = 0
	}
	relax := func(a, b int, w int64) {
		if w < d[a*n+b] {
			d[a*n+b] = w
		}
	}
	g.Edges(func(u, v int, w int64) {
		relax(u, v, w)
		if !g.Directed() {
			relax(v, u, w)
		}
	})
	for k := 0; k < n; k++ {
		rowK := d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik >= apsp.Inf {
				continue
			}
			rowI := d[i*n : (i+1)*n]
			for j, dkj := range rowK {
				if dkj < apsp.Inf && dik+dkj < rowI[j] {
					rowI[j] = dik + dkj
				}
			}
		}
	}
	return d
}

// dijkstra returns the distances of g from src (O(n^2 + m); the served
// graphs are small).
func dijkstra(g *apsp.Graph, src int) []int64 {
	n := g.N()
	type arc struct {
		to int
		w  int64
	}
	adj := make([][]arc, n)
	g.Edges(func(u, v int, w int64) {
		adj[u] = append(adj[u], arc{v, w})
		if !g.Directed() {
			adj[v] = append(adj[v], arc{u, w})
		}
	})
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = apsp.Inf
	}
	dist[src] = 0
	done := make([]bool, n)
	for {
		x := -1
		for y := 0; y < n; y++ {
			if !done[y] && dist[y] < apsp.Inf && (x < 0 || dist[y] < dist[x]) {
				x = y
			}
		}
		if x < 0 {
			return dist
		}
		done[x] = true
		for _, a := range adj[x] {
			if nd := dist[x] + a.w; nd < dist[a.to] {
				dist[a.to] = nd
			}
		}
	}
}

// weights returns g's edge weights in Edges order.
func weights(g *apsp.Graph) []int64 {
	var ws []int64
	g.Edges(func(_, _ int, w int64) { ws = append(ws, w) })
	return ws
}
