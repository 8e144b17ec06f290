// Package unweighted implements the classic O(n)-round unweighted APSP
// algorithm in the CONGEST model (Holzer & Wattenhofer, PODC 2012 —
// pipelined BFS from every source, started one after another by a token
// walking a spanning tree). The paper's Table 1 cites the Omega(n) lower
// bound of [6] that holds even for unweighted APSP; this package provides
// the matching unweighted upper bound as context for the weighted
// algorithms, and doubles as a stress test of the simulator's pipelining.
//
// The implementation is robust rather than schedule-fragile: BFS waves
// carry explicit (source, dist) labels and every node forwards queued
// announcements at the per-link bandwidth, so delayed messages still relax
// correctly; the token staggering keeps the load low enough that the total
// round count stays O(n) on the tested families (asserted empirically).
package unweighted

import (
	"fmt"
	"slices"

	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// Result is the unweighted APSP output.
type Result struct {
	// Dist[src][v] is the minimum number of edges on a src->v path
	// (graph.Inf if unreachable). For directed graphs edges are followed
	// forward; communication still uses the underlying undirected graph.
	// The rows alias pooled per-network storage: they are valid until the
	// next unweighted.Run on the same Network.
	Dist   [][]int64
	Rounds int
}

const (
	kindToken uint8 = 60
	kindWave  uint8 = 61
)

// stateKey keys the pooled per-network state: the distance matrix, the
// forward-edge CSR and the wave queues all keep their footprint across
// runs, so a warm re-run allocates nothing.
type stateKey struct{}

type ann struct {
	src  int32
	dist int64
}

type runState struct {
	res        Result
	dist       *mat.Matrix
	startRound []int32
	outOff     []int32 // forward-edge CSR: outIds[outOff[v]:outOff[v+1]]
	outIds     []int32
	queue      [][]ann // per-node pending announcements (FIFO by head cursor)
	head       []int32
	proto      waveProto
}

// Run computes hop-count APSP for all sources. It consumes O(n) rounds on
// the tested families: a token performs a depth-first walk of a BFS
// spanning tree, starting one source's BFS every two rounds; wave
// announcements queue per node and drain at the link bandwidth.
//
// Run resets nw's scratch arena on entry; the returned Result aliases
// pooled per-network storage valid until the next Run on the same Network.
func Run(nw *congest.Network, g *graph.Graph) (*Result, error) {
	n := g.N
	if n == 0 {
		return &Result{}, nil
	}
	tree, err := broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}
	sc := nw.Scratch()
	sc.Reset()
	rs := congest.ScratchState(sc, stateKey{}, func() *runState { return new(runState) })
	rs.ensure(n)

	// Token schedule: the depth-first walk of the spanning tree visits
	// every node; node v's BFS starts when the token first reaches it.
	// The walk is precomputed (it is fully determined by the tree, which
	// every node helped build); startRound[v] = 2 * (first-visit index).
	stack := sc.Int32s(n)
	top := 0
	stack[top] = int32(tree.Root)
	idx := int32(0)
	for top >= 0 {
		v := stack[top]
		top--
		rs.startRound[v] = 2 * idx
		idx++
		ch := tree.Children[v]
		for k := len(ch) - 1; k >= 0; k-- { // push in reverse: ascending visit order
			top++
			stack[top] = int32(ch[k])
		}
	}
	lastStart := 2 * (int(idx) - 1)

	// The forward-edge CSR: out-neighbors per node, sorted and
	// deduplicated so that the forward-edge check on receipt is a binary
	// search instead of an adjacency scan per message.
	cnt := sc.Int32s(n)
	for v := 0; v < n; v++ {
		g.OutNeighbors(v, func(u int, _ int64) { cnt[v]++ })
	}
	rs.outOff[0] = 0
	for v := 0; v < n; v++ {
		rs.outOff[v+1] = rs.outOff[v] + cnt[v]
	}
	if cap(rs.outIds) < int(rs.outOff[n]) {
		rs.outIds = make([]int32, rs.outOff[n])
	}
	rs.outIds = rs.outIds[:rs.outOff[n]]
	copy(cnt, rs.outOff[:n])
	for v := 0; v < n; v++ {
		g.OutNeighbors(v, func(u int, _ int64) {
			rs.outIds[cnt[v]] = int32(u)
			cnt[v]++
		})
	}
	// Sort and dedup each row, compacting in place; outOff[v] is rewritten
	// to the compacted row start only after row v has been read.
	w := int32(0)
	for v := 0; v < n; v++ {
		row := rs.outIds[rs.outOff[v]:cnt[v]]
		slices.Sort(row)
		start := w
		for k, u := range row {
			if k == 0 || u != row[k-1] {
				rs.outIds[w] = u
				w++
			}
		}
		rs.outOff[v] = start
	}
	rs.outOff[n] = w

	rs.dist.Fill(graph.Inf)
	for s := 0; s < n; s++ {
		rs.dist.Set(s, s, 0)
	}

	roundsBefore := nw.Stats.Rounds
	rs.proto = waveProto{nw: nw, rs: rs, lastStart: lastStart}
	// O(n) with slack: starts take 2n rounds, waves another <= 2n + queues.
	budget := 8*n + 2*tree.Height + 64
	if _, err := nw.Run(&rs.proto, budget); err != nil {
		return nil, fmt.Errorf("unweighted: %w", err)
	}
	rs.res = Result{Dist: rs.res.Dist, Rounds: nw.Stats.Rounds - roundsBefore}
	return &rs.res, nil
}

func (rs *runState) ensure(n int) {
	if rs.dist == nil || rs.dist.Rows() < n {
		rs.dist = mat.New(n, n)
		rs.res.Dist = rs.dist.RowViews()
		rs.startRound = make([]int32, n)
		rs.outOff = make([]int32, n+1)
		rs.queue = make([][]ann, n)
		rs.head = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		rs.queue[v] = rs.queue[v][:0]
	}
	clear(rs.head[:n])
}

// forward reports whether u->v is a forward edge (binary search in the
// sorted forward-edge row of u).
func (rs *runState) forward(u, v int) bool {
	_, ok := slices.BinarySearch(rs.outIds[rs.outOff[u]:rs.outOff[u+1]], int32(v))
	return ok
}

// waveProto is the pipelined-BFS wave protocol as a reusable object.
type waveProto struct {
	nw        *congest.Network
	rs        *runState
	lastStart int
}

// Step implements congest.Proto.
func (p *waveProto) Step(v, round int, in []congest.Message, send func(congest.Message)) bool {
	rs := p.rs
	for _, m := range in {
		if m.Kind != kindWave {
			continue
		}
		src, d := int(m.A), m.B+1
		// The receiver relaxes along the edge it heard the label on
		// only if the sender is a forward in-neighbor.
		if !rs.forward(int(m.From), v) {
			continue
		}
		if d < rs.dist.At(src, v) {
			rs.dist.Set(src, v, d)
			rs.queue[v] = append(rs.queue[v], ann{src: int32(src), dist: d})
		}
	}
	if round == int(rs.startRound[v]) {
		rs.queue[v] = append(rs.queue[v], ann{src: int32(v), dist: 0})
	}
	if int(rs.head[v]) < len(rs.queue[v]) {
		a := rs.queue[v][rs.head[v]]
		if int(rs.head[v])+1 == len(rs.queue[v]) {
			rs.queue[v] = rs.queue[v][:0]
			rs.head[v] = 0
		} else {
			rs.head[v]++
		}
		for _, u := range rs.outIds[rs.outOff[v]:rs.outOff[v+1]] {
			send(congest.Message{Link: int32(p.nw.LinkIndex(v, int(u))), Kind: kindWave, A: int64(a.src), B: a.dist})
		}
	}
	return round > p.lastStart && int(rs.head[v]) >= len(rs.queue[v])
}
