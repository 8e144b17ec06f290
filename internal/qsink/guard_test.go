//go:build matcheck

package qsink

import (
	"errors"
	"testing"

	"congestapsp/internal/congest"
	"congestapsp/internal/graph"
	"congestapsp/internal/mat"
)

// TestPipelineChargeGuardMatcheck pins the matcheck guard on the host
// pipeline: for the round robin and the frame scheduler, a run with one
// value too many queued (a tampered count) and a run whose output is
// tampered after it ends (a blocker value, PipelineRounds, FrameQviMax)
// each fail with congest.ErrChargeMismatch naming the difference, and the
// right runs pass.
func TestPipelineChargeGuardMatcheck(t *testing.T) {
	in := newPipelineInput(t, graph.Ring(graph.GenConfig{N: 8, Seed: 1, MaxWeight: 5}), 0)
	nw, err := congest.NewNetwork(in.g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// x is the first node of tree 0 other than its root: the tampered
	// count queues a second value there.
	x := 0
	for x == in.Q[0] || !in.cq.InTree(0, x) {
		x++
	}
	n := in.g.N
	// run is runPipeline with before applied to the seeded schedule and
	// after to the outputs of the charged run, inside the guarded call.
	run := func(par Params, before func(s *pipeSched), after func(at *mat.Matrix, st *Stats)) error {
		at, pre := mat.New(len(in.Q), n), mat.New(len(in.Q), n)
		for ci := range in.Q {
			copy(at.Row(ci), in.at.Row(ci))
			copy(pre.Row(ci), in.at.Row(ci))
		}
		var st Stats
		s := newPipeSched(nw, in.cq, in.Q, in.delta, at)
		budget := pipelineBudget(n, len(in.Q), s.total)
		op := "qsink-roundrobin"
		if par.Scheduler == Frames {
			op = "qsink-frames"
		}
		return nw.Charged(op, func() error {
			before(s)
			var err error
			if par.Scheduler == Frames {
				err = s.runFrames(&st, par, budget)
			} else {
				err = s.runRoundRobin(&st, budget)
			}
			after(at, &st)
			return err
		}, func(c *congest.Network) error {
			return checkPipeline(op, c, in.cq, in.Q, in.delta, pre, at, &st, par)
		})
	}
	noBefore := func(*pipeSched) {}
	noAfter := func(*mat.Matrix, *Stats) {}
	extra := func(s *pipeSched) {
		s.push(x, 0)
		s.total++
	}
	robin, frames := Params{Scheduler: RoundRobin}, Params{Scheduler: Frames}
	cases := []struct {
		name string
		run  func() error
		want *congest.ErrChargeMismatch // nil: the guard passes
	}{
		{"round robin", func() error { return run(robin, noBefore, noAfter) }, nil},
		{"round robin, a value too many", func() error { return run(robin, extra, noAfter) },
			&congest.ErrChargeMismatch{Op: "qsink-roundrobin", Field: "messages", Index: -1, Charged: 59, Simulated: 58}},
		{"round robin, a wrong blocker value", func() error {
			return run(robin, noBefore, func(at *mat.Matrix, _ *Stats) { at.Set(1, 2, at.At(1, 2)+7) })
		}, &congest.ErrChargeMismatch{Op: "qsink-roundrobin", Field: "at-blocker", Index: n + 2, Charged: 10, Simulated: 3}},
		{"round robin, a wrong round count", func() error {
			return run(robin, noBefore, func(_ *mat.Matrix, st *Stats) { st.PipelineRounds++ })
		}, &congest.ErrChargeMismatch{Op: "qsink-roundrobin", Field: "pipeline-rounds", Index: -1, Charged: 14, Simulated: 13}},
		{"frames", func() error { return run(frames, noBefore, noAfter) }, nil},
		{"frames, a value too many", func() error { return run(frames, extra, noAfter) },
			&congest.ErrChargeMismatch{Op: "qsink-frames", Field: "messages", Index: -1, Charged: 59, Simulated: 58}},
		{"frames, a wrong |Q_v,i|", func() error {
			return run(frames, noBefore, func(_ *mat.Matrix, st *Stats) { st.FrameQviMax[0]++ })
		}, &congest.ErrChargeMismatch{Op: "qsink-frames", Field: "frame-qvi-max", Index: 0, Charged: 5, Simulated: 4}},
	}
	for _, tc := range cases {
		err := tc.run()
		var cm *congest.ErrChargeMismatch
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && (!errors.As(err, &cm) || *cm != *tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if nw.OnRound != nil {
			t.Errorf("%s: the guard left its OnRound hook armed", tc.name)
		}
	}
}
