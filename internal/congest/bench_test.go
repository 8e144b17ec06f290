package congest

import (
	"fmt"
	"testing"

	"congestapsp/internal/graph"
)

func benchNet(b *testing.B, n, m int) *Network {
	b.Helper()
	g := graph.RandomConnected(graph.GenConfig{N: n, Directed: true, Seed: int64(n), MaxWeight: 50}, m)
	nw, err := NewNetwork(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkEngineRoundIdle measures the per-round overhead of the engine
// with every node live but silent: the step loop plus the (empty) delivery
// phase. The steady-state loop must not allocate.
func BenchmarkEngineRoundIdle(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw := benchNet(b, n, 4*n)
			idle := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
				return false
			})
			if _, err := nw.Run(idle, 8); err == nil { // warm the engine scratch
				b.Fatal("idle protocol unexpectedly terminated")
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := nw.Run(idle, b.N); err == nil {
				b.Fatal("idle protocol unexpectedly terminated")
			}
		})
	}
}

// BenchmarkEngineDelivery measures a round in which every node sends one
// word to each neighbor: the counting-sort delivery path. Steady-state cost
// must be 0 allocs/op per delivered message.
func BenchmarkEngineDelivery(b *testing.B) {
	nw := benchNet(b, 256, 1024)
	chatter := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		for li := range nw.Neighbors(v) {
			send(Message{Link: int32(li), Kind: 1, A: int64(round)})
		}
		return false
	})
	if _, err := nw.Run(chatter, 8); err == nil { // warm arenas to steady state
		b.Fatal("chatter protocol unexpectedly terminated")
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := nw.Run(chatter, b.N); err == nil {
		b.Fatal("chatter protocol unexpectedly terminated")
	}
	b.StopTimer()
	b.ReportMetric(float64(nw.Stats.Messages)/float64(b.N), "msgs/round")
}

// BenchmarkEngineHubFanout measures the message path on a high-degree
// node: on star-n512 the hub sends one word on each of its 511 link slots
// every round and each leaf replies on the link it heard on, so a round
// delivers about 1022 messages, half of them from one sender. The
// steady-state loop must not allocate.
func BenchmarkEngineHubFanout(b *testing.B) {
	nw, err := NewNetwork(graph.Star(graph.GenConfig{N: 512, Seed: 1, MaxWeight: 50}), 1)
	if err != nil {
		b.Fatal(err)
	}
	deg := nw.Degree(0)
	fanout := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
		if v == 0 {
			for li := 0; li < deg; li++ {
				send(Message{Link: int32(li), Kind: 1, A: int64(round)})
			}
			return false
		}
		for _, m := range in {
			send(Message{Link: m.Link, Kind: 1, A: m.A})
		}
		return false
	})
	if _, err := nw.Run(fanout, 8); err == nil { // warm arenas to steady state
		b.Fatal("fan-out protocol unexpectedly terminated")
	}
	nw.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := nw.Run(fanout, b.N); err == nil {
		b.Fatal("fan-out protocol unexpectedly terminated")
	}
	b.StopTimer()
	b.ReportMetric(float64(nw.Stats.Messages)/float64(b.N), "msgs/round")
}

// BenchmarkEngineActiveSet measures a workload where almost every node is
// quiescent: two nodes ping-pong while n-2 terminated nodes sit idle. The
// active-set scheduler must make the round cost independent of n.
func BenchmarkEngineActiveSet(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw := benchNet(b, n, 4*n)
			pong := ProtoFunc(func(v, round int, in []Message, send func(Message)) bool {
				if round == 0 && v == 0 {
					send(Message{Link: 0, Kind: 1})
				}
				for _, m := range in {
					send(Message{Link: m.Link, Kind: 1}) // back to the sender
				}
				return true
			})
			if _, err := nw.Run(pong, 8); err == nil {
				b.Fatal("ping-pong unexpectedly terminated")
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := nw.Run(pong, b.N); err == nil {
				b.Fatal("ping-pong unexpectedly terminated")
			}
		})
	}
}

// BenchmarkLinkIndex measures the CSR link lookup that replaced the
// per-node neighbor maps.
func BenchmarkLinkIndex(b *testing.B) {
	nw := benchNet(b, 1024, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		v := i & 1023
		ns := nw.Neighbors(v)
		acc += nw.LinkIndex(v, ns[i%len(ns)])
	}
	if acc < 0 {
		b.Fatal("unexpected negative index")
	}
}
