package blocker

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
)

// Mode selects the blocker-set construction algorithm.
type Mode int

const (
	// Deterministic is Algorithm 2' of the paper: the stage/phase selection
	// loop of Algorithm 2 with Steps 12-14 replaced by the derandomized
	// good-set search of Algorithm 7. O~(|S|*h) rounds (Corollary 3.13).
	Deterministic Mode = iota
	// Randomized is Algorithm 2 as written: good sets are drawn from the
	// pairwise-independent sample space and retried until good (Lemma 3.8:
	// success probability >= 1/8 per attempt).
	Randomized
	// Greedy is the baseline of Agarwal et al. [2]: repeatedly take the
	// node covering the most paths. O(|S|*h + n*|Q|) rounds.
	Greedy
	// RandomSample is the classic randomized baseline (Ullman-Yannakakis /
	// Huang et al. [13]): sample each node with probability ~ln(n)/h and
	// patch any uncovered path. O(|S|*h + n) rounds.
	RandomSample
)

// String names the mode as it appears in benchmark tables and logs.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Randomized:
		return "randomized"
	case Greedy:
		return "greedy"
	default:
		return "randomsample"
	}
}

// sampleMult sets the deterministic search's sample: it enumerates
// sampleMult*n points of the affine space unless Params.UseFullSpace is set.
const sampleMult = 4

// Params configures the construction. Zero values select the paper's
// defaults (eps = delta = 1/12, linear-size sample enumeration).
type Params struct {
	Mode Mode
	// Eps and Delta are the constants of Algorithm 2, both required to be
	// in (0, 1/12] by the analysis; the implementation accepts up to 1/2
	// for experimentation.
	Eps, Delta float64
	// UseFullSpace enumerates the entire 2^(2K)-point affine space
	// (exhaustive search; small n only).
	UseFullSpace bool
	// Seed drives the Randomized and RandomSample modes.
	Seed int64
	// MaxSelectionSteps caps the selection loop (safety net); 0 means
	// automatic (16n + 1024).
	MaxSelectionSteps int
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 || p.Eps > 0.5 {
		p.Eps = 1.0 / 12
	}
	if p.Delta <= 0 || p.Delta > 0.5 {
		p.Delta = 1.0 / 12
	}
	return p
}

// Stats reports what the construction did; the blocker tables of
// `cmd/experiment -lemmas` (E2-E4, E7) print these series.
type Stats struct {
	SelectionSteps    int // iterations of the while loop (Steps 6-16)
	SingleSelections  int // Step 9/10 firings (one high-coverage node)
	GoodSetSelections int // Steps 11-14 / Algorithm 7 firings
	FallbackSteps     int // enumerated slice had no good point; single-best used
	RandomRetries     int // Randomized mode: re-drawn sets that were not good
	StagesVisited     int // stages with nonempty V_i
	PhasesVisited     int // phases entered within visited stages
	Rounds            int // CONGEST rounds consumed by the construction
	// GoodPoints / PointsScanned measure Lemma 3.8 empirically: across all
	// deterministic good-set searches, how many enumerated sample points
	// satisfied Definition 3.1 (the lemma predicts a >= 1/8 fraction over
	// the full pairwise-independent space).
	GoodPoints, PointsScanned int64
}

// Result is a computed blocker set.
type Result struct {
	Q     []int  // blocker node ids, ascending
	InQ   []bool // membership indicator
	Stats Stats
}

// Compute builds a blocker set for the full-length (depth-H) paths of coll.
// It consumes rounds on nw according to the selected algorithm.
func Compute(nw *congest.Network, coll *csssp.Collection, par Params) (*Result, error) {
	par = par.withDefaults()
	switch par.Mode {
	case Greedy:
		return computeGreedy(nw, coll)
	case RandomSample:
		return computeRandomSample(nw, coll, par)
	default:
		return computeSetCover(nw, coll, par)
	}
}

// stateKey keys the pooled set-cover state in the network's scratch
// registry: the selection loop runs per-tree protocol fleets and per-step
// broadcasts hundreds of times, so its working vectors — V_i indicators,
// upcast count matrices, per-leaf betas, broadcast item arenas — are pooled
// on the Network and resized (never reallocated) per Compute call.
type stateKey struct{}

// state carries the shared knowledge of the set-cover algorithm. Fields
// marked "global knowledge" are values that every node holds identical
// copies of after the corresponding broadcast; keeping one copy is the
// simulator's equivalent.
type state struct {
	nw   *congest.Network
	coll *csssp.Collection
	par  Params
	n, h int
	tree *broadcast.Tree // BFS tree rooted at the leader (node 0)

	// Ancestor CSR of every tree (Step 1 of Algorithm 7), in two flat
	// arenas sized from Depth: with off = ancOff[i*(n+1):], the ids
	// ancIds[off[v]:off[v+1]] are the proper ancestors of v in tree i,
	// root excluded, nearest-first. Tree i owns its rows, so sharded
	// indices write disjoint ones. Removals only delete whole paths, so
	// the lists stay valid throughout one Compute.
	ancOff []int32
	ancIds []int32

	// walks[i] is tree i's walk, taken in the Ancestors pass and kept
	// current by every commit's RemoveSubtrees: the per-tree protocols of
	// a selection step read it instead of walking the tree again.
	walks csssp.Walks

	score  []int64 // global knowledge after broadcastScores
	inVi   []bool  // current V_i (derived locally from score)
	viSize int
	// leafBeta[i][v] is |V_i ∩ path(i,v)| at the alive full-length leaves
	// v of tree i and 0 at the removed ones (global knowledge); other
	// entries are never read.
	leafBeta [][]int64
	inQ      []bool
	q        []int
	stats    Stats

	// Pooled work buffers (see ensure/reinit).
	leafBetaBuf []int64   // flat backing of leafBeta
	counts      []int64   // trees x n upcast results (one shared matrix)
	countUsed   []bool    // per-tree: counts row was filled this pass
	pijLeafBuf  []bool    // flat backing of pijLeaf
	pijLeaf     [][]bool  // row views, rebuilt per ensure; read at full-length leaves only
	scoreij     []int64   // per-step coverage scores
	inZ         []bool    // commit scratch
	cnt         []int32   // per-node item counts of a broadcast
	nuBuf       []int64   // 2 x n x m good-set aggregation backing
	nuPi, nuPij [][]int64 // row views into nuBuf
	totPi       []int64   // aggregated nuPi (or the randomized check's pair)
	totPij      []int64   // aggregated nuPij
	members     []int     // selected good-set members
}

// reinit points the pooled state at a new (collection, params) pair and
// sizes every buffer, clearing the ones whose previous contents could leak
// into this run.
func (st *state) reinit(nw *congest.Network, coll *csssp.Collection, par Params) {
	st.nw, st.coll, st.par = nw, coll, par
	st.n, st.h = nw.N(), coll.H
	st.tree = nil
	st.stats = Stats{}
	n, trees := st.n, coll.NumTrees()

	st.score = congest.Grow(st.score, n)
	st.inVi = congest.Grow(st.inVi, n)
	st.inQ = congest.Grow(st.inQ, n)
	st.scoreij = congest.Grow(st.scoreij, n)
	st.inZ = congest.Grow(st.inZ, n)
	st.cnt = congest.Grow(st.cnt, n)
	st.q = st.q[:0]

	st.counts = congest.Grow(st.counts, trees*n)
	st.countUsed = congest.Grow(st.countUsed, trees)
	st.leafBetaBuf = congest.Grow(st.leafBetaBuf, trees*n)
	st.pijLeafBuf = congest.Grow(st.pijLeafBuf, trees*n)
	if cap(st.leafBeta) < trees {
		st.leafBeta = make([][]int64, trees)
		st.pijLeaf = make([][]bool, trees)
	}
	st.leafBeta = st.leafBeta[:trees]
	st.pijLeaf = st.pijLeaf[:trees]
	for i := 0; i < trees; i++ {
		st.leafBeta[i] = st.leafBetaBuf[i*n : (i+1)*n : (i+1)*n]
		st.pijLeaf[i] = st.pijLeafBuf[i*n : (i+1)*n : (i+1)*n]
	}
	st.ancOff = congest.Grow(st.ancOff, trees*(n+1))
	total := int32(0)
	for i := 0; i < trees; i++ {
		total = ancestorOffsets(coll.Depth[i], st.ancOffRow(i), total)
	}
	st.ancIds = congest.Grow(st.ancIds, int(total))
	st.walks.Reset(coll)
}

// countsRow returns row i of the pooled trees x n upcast matrix.
func (st *state) countsRow(i int) []int64 {
	return st.counts[i*st.n : (i+1)*st.n : (i+1)*st.n]
}

// ancOffRow returns tree i's n+1 offsets into the ancestor arena.
func (st *state) ancOffRow(i int) []int32 {
	return st.ancOff[i*(st.n+1) : (i+1)*(st.n+1) : (i+1)*(st.n+1)]
}

// ancRow returns the proper ancestors of v in tree i (root excluded,
// nearest-first).
func (st *state) ancRow(i, v int) []int32 {
	off := st.ancOffRow(i)
	return st.ancIds[off[v]:off[v+1]]
}

// addTreeCounts adds, for every node v of tree i other than its root,
// counts[v] into sum. It reads the kept walk, so it costs O(tree), not
// O(n).
func (st *state) addTreeCounts(i int, counts, sum []int64) {
	for _, v := range st.walks.Tree(i).Descendants() {
		sum[v] += counts[v]
	}
}

// broadcastPositive charges the all-to-all broadcast of one (id, value)
// item from every node whose value in vals is positive: O(n) rounds
// (Lemma A.2).
func (st *state) broadcastPositive(vals []int64) error {
	for v, x := range vals {
		st.cnt[v] = b2i(x > 0)
	}
	return broadcast.AllToAllCount(st.nw, st.tree, st.cnt)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func computeSetCover(nw *congest.Network, coll *csssp.Collection, par Params) (*Result, error) {
	st := congest.ScratchState(nw.Scratch(), stateKey{}, func() *state { return new(state) })
	st.reinit(nw, coll, par)
	n := st.n
	maxSteps := par.MaxSelectionSteps
	if maxSteps == 0 {
		maxSteps = 16*n + 1024
	}

	roundsBefore := nw.Stats.Rounds
	var err error
	st.tree, err = broadcast.BuildBFS(nw, 0)
	if err != nil {
		return nil, err
	}
	// Step 1 of Algorithm 7: every node collects the ids on each of its
	// tree paths (pipelined Ancestors of [2]; O(|S|*h) rounds). Removals
	// only delete whole paths, so the lists stay valid throughout. The
	// pass also takes the kept walk of every tree. The per-tree protocols
	// are independent and dispatch across the work-stealing worker clones
	// (each index owns tree i's rows and walk).
	err = nw.ShardRuns(coll.NumTrees(), func(w *congest.Network, i int) error {
		return collectAncestors(w, coll, i, st.walks.Tree(i), st.ancOffRow(i), st.ancIds)
	})
	if err != nil {
		return nil, err
	}
	// Step 1 of Algorithm 2: compute score(v) ([2], O(|S|*h) rounds), then
	// broadcast all scores so V_i construction is local at every stage
	// (one all-to-all replaces the per-stage id broadcast of Lemma 3.2).
	if err := st.recomputeScores(); err != nil {
		return nil, err
	}

	onePlusEps := 1 + st.par.Eps
	maxStage := int(math.Ceil(math.Log(float64(n)*float64(n))/math.Log(onePlusEps))) + 1
	maxPhase := int(math.Ceil(math.Log(float64(st.h))/math.Log(onePlusEps))) + 1
	if maxPhase < 1 {
		maxPhase = 1
	}

	for i := maxStage; i >= 1; i-- {
		stageLo := math.Pow(onePlusEps, float64(i-1))
		stageHi := math.Pow(onePlusEps, float64(i))
		if !st.rebuildVi(stageLo) {
			continue // V_i empty: known locally from the score broadcast
		}
		st.stats.StagesVisited++
		needRefresh := true
		for j := maxPhase; j >= 1; j-- {
			phaseLo := math.Pow(onePlusEps, float64(j-1))
			st.stats.PhasesVisited++
			for {
				if st.stats.SelectionSteps > maxSteps {
					return nil, fmt.Errorf("blocker: selection steps exceeded safety cap %d", maxSteps)
				}
				if needRefresh {
					// Steps 3-4 / 7(a): Compute-Pi/Pij downcasts per tree,
					// then one all-to-all of per-leaf beta values so that
					// every node can evaluate |P_ij| for every j locally
					// (Algorithm 5).
					if err := st.refreshBetas(); err != nil {
						return nil, err
					}
					needRefresh = false
				}
				pijLeaf, pijSize := st.pijLeaves(phaseLo)
				if pijSize == 0 {
					break // phase done
				}
				st.stats.SelectionSteps++
				// Step 8: scoreij via per-tree upcasts + broadcast.
				scoreij, err := st.computeScoreij(pijLeaf)
				if err != nil {
					return nil, err
				}
				// Step 9: a single node covering > delta^3/(1+eps) of P_ij?
				thr := st.par.Delta * st.par.Delta * st.par.Delta / onePlusEps * float64(pijSize)
				best, bestVal := -1, int64(0)
				for v := 0; v < n; v++ {
					if st.inVi[v] && (scoreij[v] > bestVal || (scoreij[v] == bestVal && bestVal > 0 && best >= 0 && v < best)) {
						best, bestVal = v, scoreij[v]
					}
				}
				var chosen []int
				if best >= 0 && float64(bestVal) > thr {
					st.members = append(st.members[:0], best) // Step 10
					chosen = st.members
					st.stats.SingleSelections++
				} else {
					chosen, err = st.selectGoodSet(i, j, stageHi, pijLeaf, pijSize, scoreij, best)
					if err != nil {
						return nil, err
					}
				}
				if err := st.commit(chosen); err != nil {
					return nil, err
				}
				st.rebuildVi(stageLo)
				needRefresh = true
			}
		}
	}
	// Sanity: the set-cover loop must have covered everything (Lemma A.7).
	if remaining := countFullPaths(coll); remaining != 0 {
		return nil, fmt.Errorf("blocker: %d full-length paths remain uncovered", remaining)
	}
	st.stats.Rounds = nw.Stats.Rounds - roundsBefore
	sort.Ints(st.q)
	// Copy the set out of the pooled state: the caller retains Q/InQ for
	// the rest of the pipeline while this state gets reused.
	return &Result{
		Q:     append([]int(nil), st.q...),
		InQ:   append([]bool(nil), st.inQ...),
		Stats: st.stats,
	}, nil
}

// rebuildVi recomputes V_i = {v : score(v) >= lo} locally (scores are
// global knowledge). It reports whether V_i is nonempty.
func (st *state) rebuildVi(lo float64) bool {
	st.viSize = 0
	for v := 0; v < st.n; v++ {
		if float64(st.score[v]) >= lo {
			st.inVi[v] = true
			st.viSize++
		} else {
			st.inVi[v] = false
		}
	}
	return st.viSize > 0
}

// recomputeScores runs the per-tree subtree-count upcasts ([2]'s score
// algorithm; O(|S|*h) rounds) and broadcasts all scores (O(n)). The
// upcasts are independent per-tree protocols: they source-shard across
// worker clones, each writing only its tree's row of the pooled count
// matrix, and the score accumulation happens afterwards in tree order
// (int64 sums are exact, so the result is bit-identical to the sequential
// loop).
func (st *state) recomputeScores() error {
	err := st.nw.ShardRuns(st.coll.NumTrees(), func(w *congest.Network, i int) error {
		walk := st.walks.Tree(i)
		init := getTreeCharge(w).upcastInit(st.n, walk)
		for _, v := range st.coll.HLeaves(i) {
			if !st.coll.Removed[i][v] {
				init[v] = 1
			}
		}
		return st.coll.UpcastSumInto(w, walk, i, init, st.countsRow(i))
	})
	if err != nil {
		return err
	}
	score := st.score
	clear(score)
	for i := range st.coll.Sources {
		st.addTreeCounts(i, st.countsRow(i), score)
	}
	// All-to-all broadcast of (id, score) items.
	return st.broadcastPositive(score)
}

// refreshBetas recomputes leafBeta (the |V_i ∩ path| counts) with the
// Compute-Pij downcast per tree, then shares the per-leaf values by one
// all-to-all broadcast so every node can evaluate any |P_ij| locally.
func (st *state) refreshBetas() error {
	// Per-tree downcasts, source-sharded (index i owns leafBeta[i]). A
	// downcast writes only the nodes still in its tree, so the removed
	// leaves are zeroed here.
	err := st.nw.ShardRuns(st.coll.NumTrees(), func(w *congest.Network, i int) error {
		lb := st.leafBeta[i]
		if err := computePijDowncastInto(w, st.coll, i, st.walks.Tree(i), st.inVi, lb); err != nil {
			return err
		}
		for _, v := range st.coll.HLeaves(i) {
			if st.coll.Removed[i][v] {
				lb[v] = 0
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Per-leaf betas: one (leaf, tree, beta) item per pair with a V_i node
	// on its path; the all-to-all is O(n + K) rounds for K items (Lemma
	// A.2).
	cnt := st.cnt
	clear(cnt)
	for i := range st.coll.Sources {
		for _, v := range st.coll.HLeaves(i) {
			if st.leafBeta[i][v] > 0 {
				cnt[v]++
			}
		}
	}
	return broadcast.AllToAllCount(st.nw, st.tree, cnt)
}

// pijLeaves returns the indicator of alive full-length paths with at least
// phaseLo V_i-nodes, keyed (tree, leaf) and written at every full-length
// leaf, plus their count. The rows are pooled and valid until the next
// pijLeaves call.
func (st *state) pijLeaves(phaseLo float64) ([][]bool, int) {
	size := 0
	for i := range st.coll.Sources {
		row := st.pijLeaf[i]
		for _, v := range st.coll.HLeaves(i) {
			in := !st.coll.Removed[i][v] && float64(st.leafBeta[i][v]) >= phaseLo
			row[v] = in
			if in {
				size++
			}
		}
	}
	return st.pijLeaf, size
}

// computeScoreij computes scoreij(v) = #paths of P_ij containing v via one
// upcast per tree (a result from [2], Step 8 of Algorithm 2), then
// broadcasts the values (O(n)). The returned vector is pooled (valid until
// the next computeScoreij call).
func (st *state) computeScoreij(pijLeaf [][]bool) ([]int64, error) {
	// Same sharding shape as recomputeScores: independent per-tree upcasts
	// into per-tree rows, accumulated in tree order afterwards. Trees with
	// no P_ij leaf skip their upcast (and its round charge) exactly as the
	// sequential loop did.
	err := st.nw.ShardRuns(st.coll.NumTrees(), func(w *congest.Network, i int) error {
		leaves := st.coll.HLeaves(i)
		st.countUsed[i] = slices.ContainsFunc(leaves, func(v int32) bool { return pijLeaf[i][v] })
		if !st.countUsed[i] {
			return nil
		}
		walk := st.walks.Tree(i)
		init := getTreeCharge(w).upcastInit(st.n, walk)
		for _, v := range leaves {
			if pijLeaf[i][v] {
				init[v] = 1
			}
		}
		return st.coll.UpcastSumInto(w, walk, i, init, st.countsRow(i))
	})
	if err != nil {
		return nil, err
	}
	scoreij := st.scoreij
	clear(scoreij)
	for i := range st.coll.Sources {
		if st.countUsed[i] {
			st.addTreeCounts(i, st.countsRow(i), scoreij)
		}
	}
	if err := st.broadcastPositive(scoreij); err != nil {
		return nil, err
	}
	return scoreij, nil
}

// commit adds the chosen nodes to Q, removes the subtrees they root
// (Step 15, Algorithm 6), and recomputes scores (Step 16).
func (st *state) commit(chosen []int) error {
	if len(chosen) == 0 {
		return fmt.Errorf("blocker: empty selection committed")
	}
	clear(st.inZ)
	for _, v := range chosen {
		if !st.inQ[v] {
			st.inQ[v] = true
			st.q = append(st.q, v)
		}
		st.inZ[v] = true
	}
	if err := st.coll.RemoveSubtrees(st.nw, &st.walks, st.inZ, true); err != nil {
		return err
	}
	return st.recomputeScores()
}

// countFullPaths counts the alive full-length paths of the collection.
func countFullPaths(coll *csssp.Collection) int {
	total := 0
	for i := range coll.Sources {
		for _, v := range coll.HLeaves(i) {
			if !coll.Removed[i][v] {
				total++
			}
		}
	}
	return total
}

// Verify checks that q hits every full-length root-to-leaf path of a
// (freshly built, unremoved) collection; used by tests and by the
// RandomSample patch-up. Root nodes do not count as coverage (hyperedges
// exclude the root).
func Verify(coll *csssp.Collection, inQ []bool) error {
	for i := range coll.Sources {
		for _, leaf := range coll.FullLengthLeaves(i) {
			pv := coll.PathVertices(i, leaf)
			covered := false
			for _, u := range pv {
				if inQ[u] {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("blocker: path (tree %d, leaf %d) uncovered", i, leaf)
			}
		}
	}
	return nil
}
