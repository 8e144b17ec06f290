package congest

import (
	"errors"
	"slices"
	"testing"

	"congestapsp/internal/graph"
)

func path3() *graph.Graph {
	g := graph.New(3, false)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	return g
}

func TestNewNetworkRejectsBadBandwidth(t *testing.T) {
	if _, err := NewNetwork(path3(), 0); err == nil {
		t.Error("bandwidth 0 accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := graph.New(4, true)
	g.MustAddEdge(3, 1, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(2, 1, 1)
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ns := nw.Neighbors(1)
	want := []int{0, 2, 3}
	if len(ns) != 3 {
		t.Fatalf("neighbors(1) = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("neighbors(1) = %v, want %v", ns, want)
		}
	}
	if !nw.IsLink(1, 3) || nw.IsLink(0, 3) {
		t.Error("IsLink wrong")
	}
}

func TestMessageDeliveryNextRound(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	gotAt := -1
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 0 && round == 0 {
			send(Message{Link: int32(nw.LinkIndex(0, 1)), Kind: 9, A: 42})
		}
		if v == 1 {
			for _, m := range in {
				if m.Kind == 9 && m.A == 42 && m.From == 0 {
					gotAt = round
				}
			}
		}
		return round >= 2
	})
	if _, err := nw.Run(p, 10); err != nil {
		t.Fatal(err)
	}
	if gotAt != 1 {
		t.Errorf("message delivered at round %d, want 1", gotAt)
	}
}

func TestBandwidthViolationDetected(t *testing.T) {
	nw, _ := NewNetwork(path3(), 2)
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 0 && round == 0 {
			for i := 0; i < 3; i++ { // 3 words > bandwidth 2 on link 0-1
				send(Message{Link: 0, Kind: 1, A: int64(i)})
			}
		}
		return true
	})
	_, err := nw.Run(p, 5)
	var bw *ErrBandwidth
	if !errors.As(err, &bw) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
	if bw.From != 0 || bw.To != 1 {
		t.Errorf("violation on link %d->%d, want 0->1", bw.From, bw.To)
	}
}

func TestBandwidthPerLinkNotPerNode(t *testing.T) {
	// Node 1 sends one word to each of its two neighbors: legal at B=1.
	nw, _ := NewNetwork(path3(), 1)
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 1 && round == 0 {
			send(Message{Link: 0, Kind: 1}) // to 0
			send(Message{Link: 1, Kind: 1}) // to 2
		}
		return true
	})
	if _, err := nw.Run(p, 5); err != nil {
		t.Fatalf("per-link sends flagged: %v", err)
	}
}

func TestNonLinkSendRejected(t *testing.T) {
	for _, slot := range []int32{-1, 1} { // -1 and Degree(0): node 0 has one link
		nw, _ := NewNetwork(path3(), 1)
		p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
			if v == 0 && round == 0 {
				send(Message{Link: slot, Kind: 1})
			}
			return true
		})
		_, err := nw.Run(p, 5)
		var nl *ErrNotALink
		if !errors.As(err, &nl) {
			t.Fatalf("slot %d: err = %v, want ErrNotALink", slot, err)
		}
	}
}

func TestRunForChargesExactBudget(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	idle := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool { return true })
	if err := nw.RunFor(idle, 17); err != nil {
		t.Fatal(err)
	}
	if nw.Stats.Rounds != 17 {
		t.Errorf("Rounds = %d, want 17", nw.Stats.Rounds)
	}
	if err := nw.RunFor(idle, 5); err != nil {
		t.Fatal(err)
	}
	if nw.Stats.Rounds != 22 {
		t.Errorf("Rounds = %d, want 22 (accumulated)", nw.Stats.Rounds)
	}
}

func TestNonTerminationReported(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	never := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool { return false })
	if _, err := nw.Run(never, 8); err == nil {
		t.Error("non-terminating protocol not reported")
	}
}

func TestStatsAccounting(t *testing.T) {
	nw, _ := NewNetwork(path3(), 4)
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 1 && round == 0 {
			send(Message{Link: 0, Kind: 1, Words: 2})
			send(Message{Link: 1, Kind: 1})
		}
		return true
	})
	if _, err := nw.Run(p, 5); err != nil {
		t.Fatal(err)
	}
	if nw.Stats.Messages != 2 {
		t.Errorf("Messages = %d, want 2", nw.Stats.Messages)
	}
	if nw.Stats.Words != 3 {
		t.Errorf("Words = %d, want 3", nw.Stats.Words)
	}
	if nw.Stats.WordsByNode[1] != 3 {
		t.Errorf("WordsByNode[1] = %d, want 3", nw.Stats.WordsByNode[1])
	}
	if nw.Stats.MaxNodeCongestion() != 3 {
		t.Errorf("MaxNodeCongestion = %d, want 3", nw.Stats.MaxNodeCongestion())
	}
	nw.ResetStats()
	if nw.Stats.Rounds != 0 || nw.Stats.Messages != 0 {
		t.Error("ResetStats did not zero stats")
	}
}

func TestRunForDropsFinalRoundSends(t *testing.T) {
	// Sends made in the final round of a fixed schedule are dropped by the
	// schedule: they must not be delivered and must not count in Stats.
	nw, _ := NewNetwork(path3(), 1)
	var sent, got int
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		got += len(in)
		if v == 0 {
			send(Message{Link: 0, Kind: 1})
			sent++
		}
		return false
	})
	if err := nw.RunFor(p, 3); err != nil {
		t.Fatal(err)
	}
	if sent != 3 {
		t.Fatalf("node 0 stepped %d times, want 3", sent)
	}
	// Sends at rounds 0 and 1 are delivered (into rounds 1 and 2); the
	// round-2 send is dropped.
	if got != 2 {
		t.Errorf("delivered %d messages, want 2", got)
	}
	if nw.Stats.Messages != 2 || nw.Stats.Words != 2 {
		t.Errorf("Stats = %d msgs / %d words, want 2/2 (final-round send dropped)",
			nw.Stats.Messages, nw.Stats.Words)
	}
	if nw.Stats.WordsByNode[0] != 2 {
		t.Errorf("WordsByNode[0] = %d, want 2", nw.Stats.WordsByNode[0])
	}
	if nw.Stats.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", nw.Stats.Rounds)
	}
}

func TestRunForFinalRoundSendStillValidated(t *testing.T) {
	// Dropped or not, a send along a non-link is a protocol bug and must
	// still be reported.
	for _, slot := range []int32{-1, 1} { // -1 and Degree(0): node 0 has one link
		nw, _ := NewNetwork(path3(), 1)
		p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
			if v == 0 && round == 1 {
				send(Message{Link: slot, Kind: 1}) // round 1 is the final RunFor(2) round
			}
			return false
		})
		err := nw.RunFor(p, 2)
		var nl *ErrNotALink
		if !errors.As(err, &nl) {
			t.Fatalf("slot %d: err = %v, want ErrNotALink", slot, err)
		}
	}
}

func TestDoneNodeWokenByMessage(t *testing.T) {
	// A node that terminated with an empty inbox may be skipped by the
	// active-set scheduler, but an incoming message must always wake it.
	nw, _ := NewNetwork(path3(), 1)
	wokeAt := -1
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		switch v {
		case 0:
			// Quiet until round 5, then poke node 1 (done long before).
			if round == 5 {
				send(Message{Link: 0, Kind: 2})
			}
			return round >= 5
		case 1:
			for _, m := range in {
				if m.Kind == 2 {
					wokeAt = round
				}
			}
			return true // done from round 0; must still be woken
		default:
			return true
		}
	})
	if _, err := nw.Run(p, 20); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 6 {
		t.Errorf("node 1 woke at round %d, want 6", wokeAt)
	}
}

func TestLinkIndexAndDegree(t *testing.T) {
	g := graph.New(5, true)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 4, 1)
	g.MustAddEdge(3, 2, 1)
	g.MustAddEdge(3, 2, 7) // parallel edge: collapsed in UG
	nw, err := NewNetwork(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := nw.Degree(2); d != 3 {
		t.Errorf("Degree(2) = %d, want 3", d)
	}
	want := map[int]int{0: 0, 3: 1, 4: 2}
	for u, idx := range want {
		if li := nw.LinkIndex(2, u); li != idx {
			t.Errorf("LinkIndex(2, %d) = %d, want %d", u, li, idx)
		}
	}
	if li := nw.LinkIndex(2, 1); li != -1 {
		t.Errorf("LinkIndex(2, 1) = %d, want -1", li)
	}
	if li := nw.LinkIndex(0, 4); li != -1 {
		t.Errorf("LinkIndex(0, 4) = %d, want -1", li)
	}
}

func TestInboxSenderOrderDeterministic(t *testing.T) {
	// Inboxes must be ordered by (sender id, send order).
	g := graph.New(5, false)
	for _, u := range []int{0, 1, 2, 4} {
		g.MustAddEdge(u, 3, 1)
	}
	nw, _ := NewNetwork(g, 2)
	var order []int64
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if round == 0 && v != 3 { // a leaf's one link, slot 0, goes to 3
			send(Message{Link: 0, Kind: 1, A: int64(10 * v)})
			send(Message{Link: 0, Kind: 1, A: int64(10*v + 1)})
		}
		if v == 3 {
			for _, m := range in {
				order = append(order, m.A)
			}
		}
		return round >= 1
	})
	if _, err := nw.Run(p, 5); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 10, 11, 20, 21, 40, 41}
	if !slices.Equal(order, want) {
		t.Fatalf("inbox %v, want %v", order, want)
	}
}

func TestChargeRounds(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	nw.ChargeRounds(100)
	if nw.Stats.Rounds != 100 {
		t.Errorf("Rounds = %d, want 100", nw.Stats.Rounds)
	}
}

func TestOnRoundHook(t *testing.T) {
	nw, _ := NewNetwork(path3(), 1)
	var rounds []int
	var delivered []int
	nw.OnRound = func(r, d int) {
		rounds = append(rounds, r)
		delivered = append(delivered, d)
	}
	p := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 0 && round == 0 {
			send(Message{Link: 0, Kind: 3})
		}
		return round >= 1
	})
	if _, err := nw.Run(p, 5); err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 {
		t.Fatalf("hook called %d times, want >= 2", len(rounds))
	}
	if rounds[0] != 0 || rounds[1] != 1 {
		t.Errorf("cumulative round indices = %v", rounds[:2])
	}
	if delivered[0] != 1 {
		t.Errorf("delivered into round 1: got %d at hook[0]... %v", delivered[0], delivered)
	}
}
