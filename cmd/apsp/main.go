// Command apsp runs one APSP computation on a generated or user-supplied
// graph and reports distances plus the CONGEST cost accounting.
//
// Examples:
//
//	apsp -graph random -n 32 -m 128 -algorithm det43
//	apsp -graph grid -rows 5 -cols 6 -algorithm det32 -print
//	apsp -scenario powerlaw-n128-s7            (named workload corpus)
//	apsp -load roads.gr                        (DIMACS/TSV/gob by extension)
//	apsp -graph ring -n 64 -save ring.gob      (snapshot the generated graph)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"congestapsp/pkg/apsp"
)

func main() {
	var (
		gtype     = flag.String("graph", "random", "random|ring|grid|layered|star|zeromix (conflicts with -load/-edges/-scenario)")
		n         = flag.Int("n", 32, "number of nodes")
		m         = flag.Int("m", 0, "edge target for random graphs (default 4n)")
		rows      = flag.Int("rows", 5, "grid rows / layered layers")
		cols      = flag.Int("cols", 6, "grid cols / layered width")
		directed  = flag.Bool("directed", false, "directed edges")
		seed      = flag.Int64("seed", 1, "generator / algorithm seed (a -scenario name overrides it)")
		maxW      = flag.Int64("maxweight", 100, "maximum edge weight")
		algorithm = flag.String("algorithm", "det43", "det43|det32|rand43|bcast6")
		hopParam  = flag.Int("h", 0, "hop parameter override (0 or negative = default)")
		parallel  = flag.Bool("parallel", false, "source-sharded worker-pool execution (bit-identical results; ignored with -trace)")
		printMat  = flag.Bool("print", false, "print the distance matrix")
		pathFrom  = flag.Int("from", -1, "print a shortest path from this node")
		pathTo    = flag.Int("to", -1, "... to this node")
		edgesFile = flag.String("edges", "", "read edges from file; alias of -load: recognized extensions parse as that format, others as headerless \"u v w\" lists")
		loadFile  = flag.String("load", "", "load a graph file (.gr/.dimacs, .tsv/.txt/.el/.edges, .gob/.snap)")
		saveFile  = flag.String("save", "", "save the input graph to this file before running (format by extension)")
		noRun     = flag.Bool("norun", false, "exit after building/saving the graph without running APSP (format conversion)")
		scenario  = flag.String("scenario", "", "build a named workload scenario, e.g. powerlaw-n128-s7 (overrides -graph)")
		traceFile = flag.String("trace", "", "write a per-round CSV trace (round,delivered) to this file")
		updFile   = flag.String("update", "", "apply an update stream (lines: \"w u v weight\", \"a u v weight\", \"d u v\") after a first run, then re-run warm")
	)
	flag.Parse()

	if *loadFile != "" && *edgesFile != "" {
		log.Fatal("use -load or -edges, not both")
	}
	fromEdges := *edgesFile != ""
	if *loadFile == "" {
		*loadFile = *edgesFile
	}
	var g *apsp.Graph
	var err error
	switch {
	case *scenario != "":
		if *loadFile != "" {
			log.Fatal("use -scenario or -load/-edges, not both")
		}
		// A scenario fully determines its graph; generator flags that it
		// would silently override are conflicts, not no-ops.
		rejectFlagConflicts("-scenario (the scenario name fixes the graph)",
			"directed", "maxweight", "seed", "n", "m", "rows", "cols", "graph")
		sc, perr := apsp.ParseScenario(*scenario)
		if perr != nil {
			log.Fatal(perr)
		}
		// A scenario name pins the generator AND algorithm seed: rand43
		// runs must be regenerable from the name alone, matching the rows
		// cmd/experiment records.
		*seed = sc.Seed
		g, err = sc.Build()
	case *loadFile != "":
		// Same principle for loaded files; -directed is legitimately
		// consumed (headerless reinterpretation) and -seed drives the
		// randomized algorithm profiles, so both stay allowed.
		rejectFlagConflicts("-load/-edges (the file fixes the graph)",
			"maxweight", "n", "m", "rows", "cols", "graph")
		g, err = loadGraphCLI(*loadFile, *directed, fromEdges)
	default:
		g, err = buildGraph(*gtype, *n, *m, *rows, *cols, *directed, *seed, *maxW)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *saveFile != "" {
		if err := apsp.SaveGraph(*saveFile, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("graph written to %s\n", *saveFile)
	}
	if *noRun {
		if *updFile != "" {
			log.Fatal("-update conflicts with -norun")
		}
		// Format conversion (`apsp -load big.gr -save big.gob -norun`)
		// must not pay for a full APSP simulation.
		fmt.Printf("graph: n=%d m=%d directed=%v (no run)\n", g.N(), g.M(), g.Directed())
		return
	}

	alg, err := apsp.ParseAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}

	opts := apsp.Options{Algorithm: alg, HopParam: *hopParam, Seed: *seed, Parallel: *parallel}
	var closer func() error
	if *traceFile != "" {
		if *updFile != "" {
			// The trace hook spans every run on the session; two runs'
			// rounds interleaved in one CSV is never what the caller wants.
			log.Fatal("-update conflicts with -trace")
		}
		var err error
		opts.OnRound, closer, err = csvTracer(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
	}
	var res *apsp.Result
	if *updFile != "" {
		res, err = runWithUpdates(g, opts, *updFile)
	} else {
		res, err = apsp.Run(g, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	if closer != nil {
		if err := closer(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round trace written to %s\n", *traceFile)
	}

	s := res.Stats
	fmt.Printf("graph: n=%d m=%d directed=%v\n", s.N, s.M, g.Directed())
	fmt.Printf("algorithm: %v (h=%d)\n", alg, s.H)
	fmt.Printf("rounds=%d messages=%d words=%d |Q|=%d max-node-congestion=%d\n",
		s.Rounds, s.Messages, s.Words, s.BlockerSetSize, s.MaxNodeCongestion)
	fmt.Print("stage rounds:")
	for _, st := range s.Stages {
		fmt.Printf(" %s=%d", st.Name, st.Rounds)
	}
	fmt.Println()
	if s.BottleneckCount > 0 || s.QPrimeSize > 0 {
		fmt.Printf("qsink: |Q'|=%d bottlenecks=%d pipeline-rounds=%d\n", s.QPrimeSize, s.BottleneckCount, s.PipelineRounds)
	}

	if *printMat {
		for x := 0; x < g.N(); x++ {
			var row []string
			for t := 0; t < g.N(); t++ {
				if res.Dist[x][t] >= apsp.Inf {
					row = append(row, "inf")
				} else {
					row = append(row, fmt.Sprint(res.Dist[x][t]))
				}
			}
			fmt.Println(strings.Join(row, " "))
		}
	}
	if *pathFrom >= 0 && *pathTo >= 0 {
		if *pathFrom >= g.N() || *pathTo >= g.N() {
			log.Fatalf("-from/-to out of range: graph has vertices 0..%d", g.N()-1)
		}
		fmt.Printf("path %d -> %d: %v (distance %d)\n",
			*pathFrom, *pathTo, res.Path(*pathFrom, *pathTo), res.Dist[*pathFrom][*pathTo])
	}
}

// runWithUpdates is the -update flow: a first (cold) run on a warm Runner,
// the update stream applied through ApplyUpdates, and a second run that
// re-computes incrementally where the damage report allows. The returned
// Result — what -print/-from/-to render — reflects the updated graph.
func runWithUpdates(g *apsp.Graph, opts apsp.Options, path string) (*apsp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ups, err := apsp.ReadUpdates(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r, err := apsp.NewRunner(g)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := r.Run(opts); err != nil {
		return nil, err
	}
	coldWall := time.Since(start)
	st, err := r.ApplyUpdates(ups)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	start = time.Now()
	res, err := r.Run(opts)
	if err != nil {
		return nil, err
	}
	updWall := time.Since(start)
	fmt.Printf("updates: applied %d from %s: reused=%d recomputed=%d fellback=%v\n",
		len(ups), path, st.Reused, st.Recomputed, st.FellBack)
	speedup := float64(coldWall) / float64(updWall)
	fmt.Printf("updates: cold run %.2fms, post-update run %.2fms (%.1fx)\n",
		float64(coldWall.Microseconds())/1000, float64(updWall.Microseconds())/1000, speedup)
	return res, nil
}

// rejectFlagConflicts aborts when any of the named flags was explicitly
// set: the graph source named in `with` would silently override it.
func rejectFlagConflicts(with string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				log.Fatalf("-%s conflicts with %s", f.Name, with)
			}
		}
	})
}

// csvTracer returns an OnRound hook streaming "round,delivered" lines.
func csvTracer(path string) (func(round, delivered int), func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,delivered")
	hook := func(round, delivered int) {
		fmt.Fprintf(w, "%d,%d\n", round, delivered)
	}
	closer := func() error {
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Close()
	}
	return hook, closer, nil
}

func buildGraph(gtype string, n, m, rows, cols int, directed bool, seed, maxW int64) (*apsp.Graph, error) {
	o := apsp.GenOptions{N: n, Directed: directed, Seed: seed, MaxWeight: maxW}
	if m == 0 {
		m = 4 * n
	}
	switch gtype {
	case "random":
		return apsp.RandomGraph(o, m), nil
	case "ring":
		return apsp.RingGraph(o), nil
	case "grid":
		return apsp.GridGraph(rows, cols, o), nil
	case "layered":
		return apsp.LayeredGraph(rows, cols, o), nil
	case "star":
		return apsp.StarGraph(o), nil
	case "zeromix":
		return apsp.ZeroWeightGraph(o, m), nil
	}
	return nil, fmt.Errorf("unknown graph type %q", gtype)
}

// loadGraphCLI loads a graph file for -load/-edges. For -edges
// (fromEdges), unrecognized extensions fall back to the historical
// headerless "u v w" edge-list shape — now strictly validated: exactly
// three fields per line, so annotated lines that the old reader silently
// truncated fail loudly with the offending line number. -load requires a
// recognized extension. The -directed flag reinterprets each line of a
// *headerless* list as a one-way arc (again the historical semantics);
// self-describing files — DIMACS, gob, TSV with a metadata header —
// carry their own directedness and win over the flag.
func loadGraphCLI(path string, directed, fromEdges bool) (*apsp.Graph, error) {
	format, err := apsp.DetectGraphFormat(path)
	if err != nil {
		if !fromEdges {
			return nil, err
		}
		format = apsp.FormatTSV // historical -edges contract
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, meta, err := apsp.ReadGraphWithMeta(f, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !directed || g.Directed() {
		return g, nil
	}
	if meta.SelfDescribed {
		log.Printf("%s declares itself undirected; ignoring -directed", path)
		return g, nil
	}
	dg := apsp.NewGraph(g.N(), true)
	var addErr error
	g.Edges(func(u, v int, w int64) {
		if err := dg.AddEdge(u, v, w); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return dg, nil
}
