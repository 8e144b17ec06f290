//go:build matcheck

package blocker

import (
	"errors"
	"testing"

	"congestapsp/internal/bford"
	"congestapsp/internal/broadcast"
	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
)

// TestCountsGuardMatcheck pins the matcheck check of the kept score and
// scoreij vectors that runs after every pass of the upcasts: a kept score
// or scoreij one off at a node, a tree whose kept P_ij count says it has
// no P_ij leaf (so it runs no scoreij upcast), or a histogram whose |P_ij|
// is one too many fails with congest.ErrChargeMismatch naming the
// difference, and the kept state as the updates leave it passes.
func TestCountsGuardMatcheck(t *testing.T) {
	g := graph.Ring(graph.GenConfig{N: 12, Seed: 1, MaxWeight: 3})
	coll, nw := buildColl(t, g, 3, bford.Out)
	st := newState()
	st.reinit(nw, coll, Params{}.withDefaults())
	var err error
	if st.tree, err = broadcast.BuildBFS(nw, 0); err != nil {
		t.Fatal(err)
	}
	if err := nw.ShardRuns(coll.NumTrees(), st.ancestorsRun); err != nil {
		t.Fatal(err)
	}
	// V_i is every node on a full-length path and P_ij every such path.
	st.rebuildVi(1)
	st.setBound(1)
	if err := st.chargeBetas(); err != nil {
		t.Fatal(err)
	}
	v, tree := 5, 0
	if st.score[v] == 0 || st.scoreij[v] == 0 || st.pijTree[tree] == 0 {
		t.Fatalf("node %d or tree %d is on no P_ij path: score %d, scoreij %d, P_ij count %d", v, tree, st.score[v], st.scoreij[v], st.pijTree[tree])
	}
	score, scoreij, pij, size := st.score[v], st.scoreij[v], st.pijTree[tree], int64(st.pijSize())
	cases := []struct {
		name    string
		perturb func() (undo func())
		pass    func() error
		want    *congest.ErrChargeMismatch // nil: the check passes
	}{
		{"kept score", func() func() { return func() {} }, st.chargeScores, nil},
		{"kept scoreij", func() func() { return func() {} }, st.chargeScoreij, nil},
		{"a score one too many", func() func() {
			st.score[v]++
			return func() { st.score[v]-- }
		}, st.chargeScores, &congest.ErrChargeMismatch{Op: "upcast", Field: "score", Index: v, Charged: score + 1, Simulated: score}},
		{"a scoreij one too few", func() func() {
			st.scoreij[v]--
			return func() { st.scoreij[v]++ }
		}, st.chargeScoreij, &congest.ErrChargeMismatch{Op: "upcast", Field: "scoreij", Index: v, Charged: scoreij - 1, Simulated: scoreij}},
		{"a tree that skips its upcast", func() func() {
			st.pijTree[tree] = 0
			return func() { st.pijTree[tree] = pij }
		}, st.chargeScoreij, &congest.ErrChargeMismatch{Op: "upcast", Field: "pij-count", Index: tree, Charged: 0, Simulated: int64(pij)}},
		{"a P_ij leaf too many", func() func() {
			st.hist[st.h]++
			return func() { st.hist[st.h]-- }
		}, st.chargeScoreij, &congest.ErrChargeMismatch{Op: "upcast", Field: "pij-size", Index: -1, Charged: size + 1, Simulated: size}},
	}
	for _, tc := range cases {
		undo := tc.perturb()
		err := tc.pass()
		undo()
		var cm *congest.ErrChargeMismatch
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && (!errors.As(err, &cm) || *cm != *tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
