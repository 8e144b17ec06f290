package bench

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"congestapsp/pkg/apsp"
)

// TestRoundStreamPinned pins the whole-run round stream of one cold
// sequential n=64 run per profile: the (round, delivered) pairs the OnRound
// hook reports, which is what cmd/apsp -trace writes and what the fault
// injector's per-round rules count. The test compares the number of
// simulated rounds and an FNV-64a hash of the pairs with recorded values,
// so a change that charges a protocol instead of simulating it must still
// replay its rounds one by one with the same deliveries.
func TestRoundStreamPinned(t *testing.T) {
	g := apsp.RandomGraph(apsp.GenOptions{N: 64, Directed: true, Seed: 64, MaxWeight: 50}, 4*64)
	cases := []struct {
		algo   apsp.Algorithm
		rounds int
		hash   uint64
	}{
		{apsp.Deterministic43, 27699, 0xf224dc0d71136844},
		{apsp.Deterministic32, 2534, 0xe41fbc443ff81fd5},
		{apsp.Randomized43, 12319, 0x38124ab068320fc0},
		{apsp.BroadcastStep6, 27588, 0xcf9904b63d0ffa4f},
	}
	for _, tc := range cases {
		h := fnv.New64a()
		var pair [16]byte
		rounds := 0
		opt := apsp.Options{Algorithm: tc.algo, OnRound: func(round, delivered int) {
			binary.LittleEndian.PutUint64(pair[:8], uint64(round))
			binary.LittleEndian.PutUint64(pair[8:], uint64(delivered))
			h.Write(pair[:])
			rounds++
		}}
		if _, err := apsp.Run(g, opt); err != nil {
			t.Fatalf("%v: %v", tc.algo, err)
		}
		if rounds != tc.rounds || h.Sum64() != tc.hash {
			t.Errorf("%v: round stream has %d rounds, hash %#x; want %d rounds, hash %#x",
				tc.algo, rounds, h.Sum64(), tc.rounds, tc.hash)
		}
	}
}
