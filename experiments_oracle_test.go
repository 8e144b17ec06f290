package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"congestapsp/pkg/apsp"
)

// committedRow is the part of an EXPERIMENTS.json row the oracle compares:
// the cell's identity and its distributed columns.
type committedRow struct {
	Scenario          string        `json:"scenario"`
	N                 int           `json:"n"`
	Seed              int64         `json:"seed"`
	Algorithm         string        `json:"algorithm"`
	Exec              string        `json:"exec"`
	H                 int           `json:"h"`
	BlockerSetSize    int           `json:"blocker_set_size"`
	Rounds            int           `json:"rounds"`
	Messages          int64         `json:"messages"`
	Words             int64         `json:"words"`
	MaxNodeCongestion int64         `json:"max_node_congestion"`
	Stages            []stageRounds `json:"stages"`
}

type stageRounds struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
}

// TestCommittedExperimentsOracle makes the committed EXPERIMENTS.json a
// standing oracle: every n=64 row is re-run through one warm apsp.Runner
// per scenario with the row's algorithm, seed and exec mode (sharded rows
// with Parallel on, under forceWorkers so the worker fleet really runs),
// and the paper's measures — h, |Q|, rounds, messages, words, max node
// congestion and each stage's rounds — must equal the committed values
// exactly. A change that moves any of them must regenerate the file
// (scripts/bench.sh) and explain why.
func TestCommittedExperimentsOracle(t *testing.T) {
	defer forceWorkers(t)()
	raw, err := os.ReadFile("EXPERIMENTS.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []committedRow `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	runners := map[string]*apsp.Runner{}
	checked := 0
	for _, want := range doc.Rows {
		if want.N != 64 {
			continue
		}
		r := runners[want.Scenario]
		if r == nil {
			sc, err := apsp.ParseScenario(want.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			if r, err = apsp.NewRunner(g); err != nil {
				t.Fatal(err)
			}
			runners[want.Scenario] = r
		}
		alg, err := apsp.ParseAlgorithm(want.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(apsp.Options{Algorithm: alg, Seed: want.Seed, Parallel: want.Exec == "sharded"})
		if err != nil {
			t.Fatalf("%s %s %s: %v", want.Scenario, want.Algorithm, want.Exec, err)
		}
		s := res.Stats
		got := want
		got.H, got.BlockerSetSize, got.Rounds = s.H, s.BlockerSetSize, s.Rounds
		got.Messages, got.Words, got.MaxNodeCongestion = s.Messages, s.Words, s.MaxNodeCongestion
		got.Stages = nil
		for _, st := range s.Stages {
			got.Stages = append(got.Stages, stageRounds{st.Name, st.Rounds})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s %s:\n got       %+v\n committed %+v", want.Scenario, want.Algorithm, want.Exec, got, want)
		}
		checked++
	}
	// 10 scenario families x 4 algorithm profiles x {seq, sharded}.
	if checked != 80 {
		t.Errorf("checked %d committed n=64 rows, want 80", checked)
	}
}
