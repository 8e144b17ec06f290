package apsp

import (
	"bytes"
	"reflect"
	"testing"
)

func TestScenarioNameRoundTrip(t *testing.T) {
	for _, family := range Families() {
		for _, seed := range []int64{7, 0, -3} {
			sc := Scenario{Family: family, N: 96, Seed: seed}
			got, err := ParseScenario(sc.Name())
			if err != nil {
				t.Fatalf("%s: %v", sc.Name(), err)
			}
			if got != sc {
				t.Fatalf("parse(%q) = %+v, want %+v", sc.Name(), got, sc)
			}
		}
	}
}

func TestParseScenarioRejects(t *testing.T) {
	for _, name := range []string{
		"",
		"powerlaw",
		"powerlaw-n64",
		"powerlaw-64-7",
		"nosuchfamily-n64-s7",
		"powerlaw-n64-s7-extra",
		"powerlaw-nx-s7",
		"powerlaw-n1-s7", // n < 2
	} {
		if _, err := ParseScenario(name); err == nil {
			t.Fatalf("ParseScenario(%q) accepted", name)
		}
	}
}

func TestScenarioCorpusCoversNewFamilies(t *testing.T) {
	fams := Families()
	for _, want := range []string{"powerlaw", "geometric", "expander", "ktree"} {
		found := false
		for _, f := range fams {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("family %q missing from registry %v", want, fams)
		}
		if FamilyDescription(want) == "" {
			t.Fatalf("family %q has no description", want)
		}
	}
}

// TestScenarioBuildDeterministic: the same scenario name always builds the
// same graph — the property that makes EXPERIMENTS.json rows regenerable.
func TestScenarioBuildDeterministic(t *testing.T) {
	for _, family := range Families() {
		sc := Scenario{Family: family, N: 48, Seed: 3}
		a, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		b, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		var ab, bb bytes.Buffer
		if err := WriteGraph(&ab, a, FormatTSV); err != nil {
			t.Fatal(err)
		}
		if err := WriteGraph(&bb, b, FormatTSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: two builds serialize differently", sc.Name())
		}
	}
}

// TestGraphIORoundTripPublic: the pkg/apsp Load/Save surface preserves a
// scenario graph exactly in every format.
func TestGraphIORoundTripPublic(t *testing.T) {
	sc := Scenario{Family: "powerlaw", N: 40, Seed: 2}
	g, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"g.gr", "g.tsv", "g.gob"} {
		path := dir + "/" + name
		if err := SaveGraph(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N() != g.N() || got.M() != g.M() || got.Directed() != g.Directed() {
			t.Fatalf("%s: shape differs after round-trip", name)
		}
		type edge struct {
			u, v int
			w    int64
		}
		var a, b []edge
		g.Edges(func(u, v int, w int64) { a = append(a, edge{u, v, w}) })
		got.Edges(func(u, v int, w int64) { b = append(b, edge{u, v, w}) })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: edges differ after round-trip", name)
		}
	}
}

// TestScenarioRunsExact: a small scenario from each new family runs the
// full pipeline, and its distances pass symmetry and triangle spot checks.
func TestScenarioRunsExact(t *testing.T) {
	for _, family := range []string{"powerlaw", "geometric", "expander", "ktree"} {
		sc := Scenario{Family: family, N: 20, Seed: 1}
		g, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		// Spot-check symmetry (scenario graphs are undirected) and the
		// triangle inequality through vertex 0.
		for x := 0; x < g.N(); x++ {
			for y := 0; y < g.N(); y++ {
				if res.Dist[x][y] != res.Dist[y][x] {
					t.Fatalf("%s: asymmetric distance (%d,%d)", sc.Name(), x, y)
				}
				if res.Dist[x][y] > res.Dist[x][0]+res.Dist[0][y] {
					t.Fatalf("%s: triangle violation (%d,%d)", sc.Name(), x, y)
				}
			}
		}
	}
}
