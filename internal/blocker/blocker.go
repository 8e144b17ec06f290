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
// registry: its kept knowledge, its per-tree walks and its working vectors
// are pooled on the Network and resized (never reallocated) per Compute
// call.
type stateKey struct{}

// state carries the shared knowledge of the set-cover algorithm. Fields
// marked "global knowledge" are values that every node holds identical
// copies of after the corresponding broadcast; keeping one copy is the
// simulator's equivalent. The knowledge is kept from one selection step to
// the next and updated by what each commit and each change of V_i or of
// the phase moves, each update walking Parent rows, O(H) per full-length
// path it touches; the per-tree protocols that would recompute it are
// charged from the trees' depth histograms.
type state struct {
	nw   *congest.Network
	coll *csssp.Collection
	par  Params
	n, h int
	tree *broadcast.Tree // BFS tree rooted at the leader (node 0)

	// walks[i] is tree i's walk, taken in the Ancestors pass and kept
	// current, depth histogram included, by every commit's
	// RemoveSubtrees. calls[i] counts the runs charged on tree i whose
	// words are not yet in WordsByNode (flushWords). eager, which tests
	// set, adds them run by run, as -tags matcheck builds always do.
	walks csssp.Walks
	calls []csssp.RunCounts
	eager bool

	// treeIds[treeOff[u]:treeOff[u+1]] lists the trees that held u below
	// their root when setVi first needed it (taken from the kept walks;
	// trees only lose nodes, so a listed tree may have lost u since, and
	// no other tree holds it). haveTrees says whether it is taken.
	treeOff, treeIds []int32
	haveTrees        bool

	score  []int64 // alive full-length paths through v, root excluded (global knowledge)
	inVi   []bool  // current V_i (derived locally from score)
	viSize int

	// The alive full-length leaves of tree i are HLeaves(i) less the
	// removed ones, and beta[leafOff[i]+k] is |V_i ∩ path| of HLeaves(i)[k]
	// (global knowledge; stale once the leaf is removed). hist[b] counts
	// the alive leaves with beta b, and betaCnt[v] the trees in which v is
	// an alive leaf with beta > 0: v's items in the beta broadcast.
	leafOff []int32
	beta    []int32
	hist    []int64
	betaCnt []int32

	// P_ij is the alive leaves with beta >= pijLo (h+1: none); pijTree[i]
	// counts tree i's, and scoreij[v] the P_ij paths through v, root
	// excluded (global knowledge).
	pijLo   int
	pijTree []int32
	scoreij []int64

	inQ   []bool
	q     []int
	stats Stats

	// Pooled work buffers.
	recount      []int64   // checkCounts' recount (-tags matcheck only)
	stack, below []int32   // leavesBelow's subtree walk and result
	path         []int32   // viPath's result
	inZ          []bool    // commit scratch: Z as an indicator
	zs           []int     // and as a list
	cnt          []int32   // per-node item counts of a broadcast
	nuBuf        []int64   // 2 x n x m good-set aggregation backing
	nuPi, nuPij  [][]int64 // row views into nuBuf
	totPi        []int64   // aggregated nuPi (or the randomized check's pair)
	totPij       []int64   // aggregated nuPij
	members      []int     // selected good-set members

	// The per-tree sub-runs, bound once so that a warm Compute hands
	// ShardRuns no new closure.
	ancestorsRun, pijRun, scoreRun, scoreijRun func(w *congest.Network, i int) error
}

func newState() *state {
	st := new(state)
	st.ancestorsRun, st.pijRun = st.ancestorsOne, st.pijOne
	st.scoreRun, st.scoreijRun = st.scoreOne, st.scoreijOne
	return st
}

// reinit points the pooled state at a new (collection, params) pair, sizes
// every buffer, and sets the knowledge for an empty V_i and Q: every beta
// 0, no P_ij, and each node's score counted over the alive full-length
// paths.
func (st *state) reinit(nw *congest.Network, coll *csssp.Collection, par Params) {
	st.nw, st.coll, st.par = nw, coll, par
	st.n, st.h = nw.N(), coll.H
	st.tree = nil
	st.stats = Stats{}
	st.haveTrees = false
	n, trees := st.n, coll.NumTrees()

	st.score = congest.Grow(st.score, n)
	st.inVi = congest.Grow(st.inVi, n)
	st.viSize = 0
	st.inQ = congest.Grow(st.inQ, n)
	st.scoreij = congest.Grow(st.scoreij, n)
	st.betaCnt = congest.Grow(st.betaCnt, n)
	st.inZ = congest.Grow(st.inZ, n)
	st.cnt = congest.Grow(st.cnt, n)
	st.q = st.q[:0]

	st.calls = congest.Grow(st.calls, trees)
	st.pijTree = congest.Grow(st.pijTree, trees)
	st.pijLo = st.h + 1
	st.hist = congest.Grow(st.hist, st.h+1)
	st.leafOff = congest.Grow(st.leafOff, trees+1)
	for i := 0; i < trees; i++ {
		st.leafOff[i+1] = st.leafOff[i] + int32(len(coll.HLeaves(i)))
		for _, v := range coll.HLeaves(i) {
			if !coll.Removed[i][v] {
				st.hist[0]++
				st.addPath(i, v, 1, st.score)
			}
		}
	}
	st.beta = congest.Grow(st.beta, int(st.leafOff[trees]))
	st.walks.Reset(coll)
}

// addPath adds d to vec at the nodes of tree i's path from v up to the
// root, the root excluded.
func (st *state) addPath(i int, v int32, d int64, vec []int64) {
	parent, root := st.coll.Parent[i], st.coll.Sources[i]
	for u := int(v); u != root; u = parent[u] {
		vec[u] += d
	}
}

// viPath lists the V_i nodes of tree i's path from v up to the root, the
// root excluded, into a pooled buffer.
func (st *state) viPath(i int, v int32) []int32 {
	parent, root := st.coll.Parent[i], st.coll.Sources[i]
	out := st.path[:0]
	for u := int(v); u != root; u = parent[u] {
		if st.inVi[u] {
			out = append(out, int32(u))
		}
	}
	st.path = out
	return out
}

// leavesBelow lists the positions in HLeaves(i) of the alive full-length
// leaves in u's subtree of tree i, u included, into a pooled buffer.
func (st *state) leavesBelow(i int, u int32) []int32 {
	coll := st.coll
	removed, depth, hl := coll.Removed[i], coll.Depth[i], coll.HLeaves(i)
	out, stack := st.below[:0], append(st.stack[:0], u)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if depth[v] == st.h {
			k, _ := slices.BinarySearch(hl, v)
			out = append(out, int32(k))
			continue
		}
		for _, c := range coll.ChildIDs(i, int(v)) {
			if !removed[c] {
				stack = append(stack, c)
			}
		}
	}
	st.stack, st.below = stack, out
	return out
}

// movePij moves tree i's alive leaf v into P_ij (in) or out of it.
func (st *state) movePij(i int, v int32, in bool) {
	d := int64(-1)
	if in {
		d = 1
	}
	st.pijTree[i] += int32(d)
	st.addPath(i, v, d, st.scoreij)
}

// moveBeta adds d to the beta of the alive full-length leaf HLeaves(i)[k].
func (st *state) moveBeta(i, k int, d int32) {
	v, p := st.coll.HLeaves(i)[k], int(st.leafOff[i])+k
	old := st.beta[p]
	b := old + d
	st.beta[p] = b
	st.hist[old]--
	st.hist[b]++
	st.betaCnt[v] += b2i(b > 0) - b2i(old > 0)
	if was, is := int(old) >= st.pijLo, int(b) >= st.pijLo; was != is {
		st.movePij(i, v, is)
	}
}

// setVi moves u into V_i (in) or out of it: the beta of every alive
// full-length leaf below u moves by one, in every tree that holds u below
// its root.
func (st *state) setVi(u int, in bool) {
	st.inVi[u] = in
	d := int32(-1)
	if in {
		d = 1
	}
	if !st.haveTrees {
		st.takeTrees()
	}
	for _, i := range st.treeIds[st.treeOff[u]:st.treeOff[u+1]] {
		if st.coll.Removed[i][u] {
			continue
		}
		for _, k := range st.leavesBelow(int(i), int32(u)) {
			st.moveBeta(int(i), int(k), d)
		}
	}
}

// takeTrees lists, per node, the trees whose kept walk holds it below the
// root.
func (st *state) takeTrees() {
	n, trees := st.n, st.coll.NumTrees()
	off := congest.Grow(st.treeOff, n+1)
	for i := 0; i < trees; i++ {
		for _, v := range st.walks.Tree(i).Descendants() {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := congest.Grow(st.treeIds, int(off[n]))
	next := append(st.stack[:0], off[:n]...)
	for i := 0; i < trees; i++ {
		for _, v := range st.walks.Tree(i).Descendants() {
			ids[next[v]] = int32(i)
			next[v]++
		}
	}
	st.treeOff, st.treeIds, st.stack, st.haveTrees = off, ids, next, true
}

// setBound makes P_ij the alive leaves with beta >= lo: the leaves whose
// beta lies between the old bound and lo enter P_ij or leave it. The
// histogram tells when there are none, and only then the leaves are not
// scanned.
func (st *state) setBound(lo int) {
	from, to := min(lo, st.pijLo), max(lo, st.pijLo)
	moved := int64(0)
	for b := from; b < to; b++ {
		moved += st.hist[b]
	}
	if moved > 0 {
		for i := range st.coll.Sources {
			base := int(st.leafOff[i])
			for k, v := range st.coll.HLeaves(i) {
				if b := int(st.beta[base+k]); b >= from && b < to && !st.coll.Removed[i][v] {
					st.movePij(i, v, lo < st.pijLo)
				}
			}
		}
	}
	st.pijLo = lo
}

// pijSize returns |P_ij|, a suffix sum of the beta histogram.
func (st *state) pijSize() int {
	size := int64(0)
	for _, c := range st.hist[st.pijLo:] {
		size += c
	}
	return int(size)
}

// removeLeaf takes the alive full-length leaf HLeaves(i)[k] out of the
// knowledge: its path leaves every count.
func (st *state) removeLeaf(i, k int) {
	v, b := st.coll.HLeaves(i)[k], st.beta[int(st.leafOff[i])+k]
	st.hist[b]--
	st.betaCnt[v] -= b2i(b > 0)
	if int(b) >= st.pijLo {
		st.movePij(i, v, false)
	}
	st.addPath(i, v, -1, st.score)
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
	st := congest.ScratchState(nw.Scratch(), stateKey{}, newState)
	st.reinit(nw, coll, par)
	roundsBefore := nw.Stats.Rounds
	err := st.cover(nil)
	for i := range coll.Sources {
		st.flushWords(nw, i)
	}
	if err != nil {
		return nil, err
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

// cover runs the stage/phase selection loop of Algorithm 2 on the state
// reinit set up. onCommit, when not nil, is called after every commit,
// once V_i is rebuilt.
func (st *state) cover(onCommit func()) error {
	nw, coll, n := st.nw, st.coll, st.n
	maxSteps := st.par.MaxSelectionSteps
	if maxSteps == 0 {
		maxSteps = 16*n + 1024
	}
	var err error
	st.tree, err = broadcast.BuildBFS(nw, 0)
	if err != nil {
		return err
	}
	// Step 1 of Algorithm 7: every node collects the ids on each of its
	// tree paths (pipelined Ancestors of [2]; O(|S|*h) rounds). Removals
	// only delete whole paths, so the lists stay valid throughout. The
	// pass also takes the kept walk of every tree. The per-tree runs are
	// independent and dispatch across the work-stealing worker clones
	// (each index owns tree i's walk and counts).
	if err := nw.ShardRuns(coll.NumTrees(), st.ancestorsRun); err != nil {
		return err
	}
	// Step 1 of Algorithm 2: compute score(v) ([2], O(|S|*h) rounds), then
	// broadcast all scores so V_i construction is local at every stage
	// (one all-to-all replaces the per-stage id broadcast of Lemma 3.2).
	if err := st.chargeScores(); err != nil {
		return err
	}

	onePlusEps := 1 + st.par.Eps
	maxStage := int(math.Ceil(math.Log(float64(n)*float64(n))/math.Log(onePlusEps))) + 1
	maxPhase := st.maxPhase()

	for i := maxStage; i >= 1; i-- {
		stageLo := math.Pow(onePlusEps, float64(i-1))
		stageHi := math.Pow(onePlusEps, float64(i))
		st.setBound(st.h + 1) // no P_ij between stages
		if !st.rebuildVi(stageLo) {
			continue // V_i empty: known locally from the score broadcast
		}
		st.stats.StagesVisited++
		needRefresh := true
		for j := maxPhase; j >= 1; j-- {
			st.setBound(st.phaseBound(j))
			st.stats.PhasesVisited++
			for {
				if st.stats.SelectionSteps > maxSteps {
					return fmt.Errorf("blocker: selection steps exceeded safety cap %d", maxSteps)
				}
				if needRefresh {
					// Steps 3-4 / 7(a): Compute-Pi/Pij downcasts per tree,
					// then one all-to-all of per-leaf beta values so that
					// every node can evaluate |P_ij| for every j locally
					// (Algorithm 5).
					if err := st.chargeBetas(); err != nil {
						return err
					}
					needRefresh = false
				}
				pijSize := st.pijSize()
				if pijSize == 0 {
					break // phase done
				}
				st.stats.SelectionSteps++
				// Step 8: scoreij via per-tree upcasts + broadcast.
				if err := st.chargeScoreij(); err != nil {
					return err
				}
				scoreij := st.scoreij
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
					chosen, err = st.selectGoodSet(i, j, stageHi, pijSize, best)
					if err != nil {
						return err
					}
				}
				if err := st.commit(chosen); err != nil {
					return err
				}
				st.rebuildVi(stageLo)
				if onCommit != nil {
					onCommit()
				}
				needRefresh = true
			}
		}
	}
	return nil
}

// maxPhase is the first phase of every stage.
func (st *state) maxPhase() int {
	return max(1, int(math.Ceil(math.Log(float64(st.h))/math.Log(1+st.par.Eps)))+1)
}

// phaseBound is the beta bound of phase j: P_ij is the alive paths with
// at least (1+eps)^(j-1) V_i nodes, so with a beta of at least the
// smallest integer that large, or h+1 (no path) when that exceeds h.
func (st *state) phaseBound(j int) int {
	return min(int(math.Ceil(math.Pow(1+st.par.Eps, float64(j-1)))), st.h+1)
}

// rebuildVi recomputes V_i = {v : score(v) >= lo} locally (scores are
// global knowledge), moving the betas below every node that enters or
// leaves. It reports whether V_i is nonempty.
func (st *state) rebuildVi(lo float64) bool {
	st.viSize = 0
	for v := 0; v < st.n; v++ {
		in := float64(st.score[v]) >= lo
		if in != st.inVi[v] {
			st.setVi(v, in)
		}
		if in {
			st.viSize++
		}
	}
	return st.viSize > 0
}

// chargeScores charges the per-tree subtree-count upcasts of score(v)
// ([2]'s score algorithm; O(|S|*h) rounds) and broadcasts all scores
// (O(n)).
func (st *state) chargeScores() error {
	if err := st.nw.ShardRuns(st.coll.NumTrees(), st.scoreRun); err != nil {
		return err
	}
	if congest.ChargesChecked {
		if err := st.checkCounts(callScore); err != nil {
			return err
		}
	}
	return st.broadcastPositive(st.score)
}

// chargeBetas charges the Compute-Pij downcast per tree, then the
// all-to-all that shares the per-leaf betas: one (leaf, tree, beta) item
// per alive leaf with a V_i node on its path, O(n + K) rounds for K items
// (Lemma A.2), so every node can evaluate any |P_ij| locally.
func (st *state) chargeBetas() error {
	if err := st.nw.ShardRuns(st.coll.NumTrees(), st.pijRun); err != nil {
		return err
	}
	return broadcast.AllToAllCount(st.nw, st.tree, st.betaCnt)
}

// chargeScoreij charges the upcasts of scoreij(v) = #paths of P_ij
// containing v, one per tree that has a P_ij leaf (a result from [2],
// Step 8 of Algorithm 2), then broadcasts the values (O(n)).
func (st *state) chargeScoreij() error {
	if err := st.nw.ShardRuns(st.coll.NumTrees(), st.scoreijRun); err != nil {
		return err
	}
	if congest.ChargesChecked {
		if err := st.checkCounts(callScoreij); err != nil {
			return err
		}
	}
	return st.broadcastPositive(st.scoreij)
}

// commit adds the chosen nodes to Q, removes the subtrees they root
// (Step 15, Algorithm 6), and charges the score recomputation (Step 16).
// The paths that leave are taken out of the knowledge first, from the
// trees as they stand, and so are the counted words of the trees that
// lose them.
func (st *state) commit(chosen []int) error {
	if len(chosen) == 0 {
		return fmt.Errorf("blocker: empty selection committed")
	}
	clear(st.inZ)
	zs := st.zs[:0]
	for _, v := range chosen {
		if !st.inQ[v] {
			st.inQ[v] = true
			st.q = append(st.q, v)
		}
		if !st.inZ[v] {
			st.inZ[v] = true
			zs = append(zs, v)
		}
	}
	st.zs = zs
	for i := range st.coll.Sources {
		for _, z := range zs {
			if !st.removes(i, z) {
				continue
			}
			st.flushWords(st.nw, i)
			for _, k := range st.leavesBelow(i, int32(z)) {
				st.removeLeaf(i, int(k))
			}
		}
	}
	if err := st.coll.RemoveSubtrees(st.nw, &st.walks, st.inZ, true); err != nil {
		return err
	}
	return st.chargeScores()
}

// removes reports whether committing z removes its own subtree from tree
// i: z is in the tree below its root, and no ancestor of z is in Z.
func (st *state) removes(i, z int) bool {
	root := st.coll.Sources[i]
	if z == root || !st.coll.InTree(i, z) {
		return false
	}
	parent := st.coll.Parent[i]
	for u := parent[z]; len(st.zs) > 1 && u != root; u = parent[u] {
		if st.inZ[u] {
			return false
		}
	}
	return true
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
