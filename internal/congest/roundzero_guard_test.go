//go:build matcheck

package congest

import (
	"errors"
	"testing"
)

// TestRoundZeroGuardMatcheck pins the matcheck guard of sparse starts: a
// node left out of the round-0 set that sends, or stays live, when stepped
// in round 0 fails the run with ErrRoundZero naming it, under both
// schedules; a protocol that keeps the rule passes.
func TestRoundZeroGuardMatcheck(t *testing.T) {
	cases := []struct {
		name string
		step func(v, round int, send func(Message)) bool
		want *ErrRoundZero
	}{
		{"sends", func(v, round int, send func(Message)) bool {
			if round == 0 && v == 2 {
				send(Message{Link: 0}) // to 1
			}
			return true
		}, &ErrRoundZero{Node: 2, Sent: true}},
		{"stays live", func(v, round int, send func(Message)) bool {
			return v != 1 || round > 0
		}, &ErrRoundZero{Node: 1}},
		{"keeps the rule", func(v, round int, send func(Message)) bool {
			if round == 0 && v == 0 {
				send(Message{Link: 0}) // to 1
			}
			return true
		}, nil},
	}
	for _, tc := range cases {
		for _, fixed := range []bool{false, true} {
			nw, _ := NewNetwork(path3(), 1)
			p := ProtoFunc(func(v, round int, _ []Message, send func(Message)) bool {
				return tc.step(v, round, send)
			})
			_, err := nw.RunFrom(p, []int32{0}, 3, fixed)
			var rz *ErrRoundZero
			switch {
			case tc.want == nil && err != nil:
				t.Errorf("%s fixed=%v: %v", tc.name, fixed, err)
			case tc.want != nil && (!errors.As(err, &rz) || *rz != *tc.want):
				t.Errorf("%s fixed=%v: got %v, want %v", tc.name, fixed, err, tc.want)
			}
		}
	}
}
