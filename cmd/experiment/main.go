// Command experiment is the systematic sweep runner of the workload layer:
// it crosses a scenario corpus (named generator families at fixed sizes and
// seeds) with every algorithm profile and both execution modes, runs each
// cell on one warm apsp.Runner per scenario (all 4 profiles x 2 exec modes
// share the scenario's network and worker fleet after a discarded warm-up
// run, so every recorded cell is uniformly warm — and the sweep doubles as
// a warm-session smoke), and emits one row per cell to EXPERIMENTS.json
// (and optionally CSV) — the empirical, regenerable counterpart of the
// paper's Table 1.
//
// Each row records the distributed cost (rounds, messages, words, max node
// congestion, blocker-set size), the host cost (wall-clock, allocations),
// and the staged executor's per-stage breakdown (stage name, charged
// rounds, wall-clock); -check additionally validates every distance matrix
// against the sequential Floyd-Warshall oracle. "sharded" execution uses
// the work-stealing worker pool (apsp.Options.Parallel, DESIGN.md §2.4),
// whose results are bit-identical to sequential execution; whenever a
// sweep runs both modes, the runner asserts the distributed columns
// (rounds, messages, words, congestion, |Q|, h, per-stage rounds) of the
// seq and sharded rows match and aborts on divergence.
//
// With -lemmas the command prints the per-lemma markdown tables instead
// (lemmas.go): Table 1 and the paper's quantitative lemmas, over the same
// scenario registry, cells and oracles. It writes no JSON or CSV.
//
// Examples:
//
//	experiment                                   # default corpus, EXPERIMENTS.json
//	experiment -sizes 64,128 -check              # acceptance sweep with oracle check
//	experiment -scenarios powerlaw,expander -algorithms det43 -csv out.csv
//	experiment -scenarios powerlaw-n96-s3        # one explicit scenario
//	experiment -lemmas table1,qsink -sizes 16,24,32 -seeds 1,2 -check
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"congestapsp/internal/graph"
	"congestapsp/internal/graphio"
	"congestapsp/pkg/apsp"
)

func main() {
	var (
		scenariosFlag  = flag.String("scenarios", "random,grid,powerlaw,geometric,expander,ktree", "comma-separated scenario families or explicit names (e.g. powerlaw-n128-s7)")
		sizesFlag      = flag.String("sizes", "64,128", "comma-separated vertex counts (ignored for explicit scenario names)")
		seedsFlag      = flag.String("seeds", "1", "comma-separated generator seeds (ignored for explicit scenario names)")
		algorithmsFlag = flag.String("algorithms", "det43,det32,rand43,bcast6", "comma-separated algorithm profiles")
		execFlag       = flag.String("exec", "seq,sharded", "execution modes: seq, sharded (source-sharded worker pool); -lemmas renders its report once per mode and aborts if they differ")
		check          = flag.Bool("check", false, "validate every distance matrix against the Floyd-Warshall oracle; -lemmas also checks q-sink deliveries, blocker coverage and the bottleneck bounds")
		checkSamples   = flag.Int("check-samples", 0, "with -check, validate this many sampled source rows against on-demand Dijkstra instead of the full Floyd-Warshall matrix (the O(n²)-memory oracle big-n runs cannot afford)")
		skipLastHops   = flag.Bool("skip-lasthops", false, "skip the stage-8 last-edge pass (distances only); big-n runs use this to drop both the n² last-hop table and stage 8's L·n neighbor-distance working set")
		jsonPath       = flag.String("json", "EXPERIMENTS.json", "JSON output path (empty to skip)")
		csvPath        = flag.String("csv", "", "CSV output path (empty to skip)")
		quiet          = flag.Bool("q", false, "suppress per-cell progress on stderr")
		timeout        = flag.Duration("timeout", 0, "per-cell deadline; a cell that exceeds it is skipped with a warning (0 = none)")
		cpuProfile     = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProfile     = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		lemmasFlag     = flag.String("lemmas", "", "print these per-lemma tables to stdout instead of running the JSON sweep: all, or a comma list of "+lemmaNames())
	)
	flag.Parse()

	var lemmas []lemmaTable
	if *lemmasFlag != "" {
		rejectFlagConflicts("-lemmas (the tables fix their workloads and print to stdout)",
			"scenarios", "algorithms", "json", "csv")
		*jsonPath = "" // the report streams to stdout; never overwrite EXPERIMENTS.json
		var err error
		if lemmas, err = parseLemmas(*lemmasFlag); err != nil {
			log.Fatal(err)
		}
	}
	sizes, err := parseInts(*sizesFlag, "size")
	if err != nil {
		log.Fatal(err)
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		log.Fatal(err)
	}
	scenarios, err := expandScenarios(*scenariosFlag, sizes, seeds)
	if err != nil {
		log.Fatal(err)
	}
	algorithms, err := parseAlgorithms(*algorithmsFlag)
	if err != nil {
		log.Fatal(err)
	}
	execModes, err := parseExecModes(*execFlag)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	// SIGINT cancels the executing cell at its next round or stage boundary
	// (the ctx plumbing), and whatever rows completed are flushed atomically
	// before exiting — a half-day sweep killed at 90% keeps its 90%.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var rows []row
	flush := func() {
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rows, *check); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d rows)\n", *jsonPath, len(rows))
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, rows); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d rows)\n", *csvPath, len(rows))
		}
	}
	interrupted := func() {
		fmt.Fprintln(os.Stderr, "experiment: interrupted; flushing partial results")
		flush()
		stopProfiles()
		os.Exit(130)
	}
	// cellCtx derives one cell's context: the signal context, optionally
	// bounded by the per-cell deadline.
	cellCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(ctx, *timeout)
		}
		return context.WithCancel(ctx)
	}

	if lemmas != nil {
		runLemmas(lemmas, execModes, *quiet, lemmaRun{
			sizes: sizes, seeds: seeds, check: *check, samples: *checkSamples,
			skipLastHops: *skipLastHops, ctx: ctx, cellCtx: cellCtx, interrupted: interrupted,
		})
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
		return
	}

	for _, sc := range scenarios {
		g, err := sc.Build()
		if err != nil {
			log.Fatal(err)
		}
		var oracle func([][]int64) error
		if *check {
			oracle = oracleFor(internalGraph(g), *checkSamples, sc.Seed)
		}
		// One warm Runner per scenario: every profile x exec-mode cell of
		// this graph reuses the same network, arenas and worker fleet. One
		// discarded warm-up run per exec mode absorbs the dominant
		// one-time cold starts (network build, arena growth on the first
		// run, clone-fleet construction on the first sharded run), so the
		// recorded host-cost columns measure a mostly warm steady state;
		// the first cell of a profile whose parameters differ from the
		// warm-up's (e.g. det32's larger h) may still grow some
		// profile-specific pooled state. The cold-vs-warm cost itself is
		// measured separately in BENCH_apsp.json.
		runner, err := apsp.NewRunner(g)
		if err != nil {
			log.Fatal(err)
		}
		for _, mode := range execModes {
			wctx, cancel := cellCtx()
			_, err := runner.RunContext(wctx, cellOptions(algorithms[0], mode, sc.Seed, *skipLastHops))
			cancel()
			switch {
			case ctx.Err() != nil:
				interrupted()
			case errors.Is(err, apsp.ErrDeadlineExceeded):
				// Warm-up blew the cell budget: every cell of this scenario
				// would too, but let the per-cell path report each skip.
			case err != nil:
				log.Fatal(err)
			}
		}
		for _, alg := range algorithms {
			byMode := make(map[string]row, len(execModes))
			for _, mode := range execModes {
				wctx, cancel := cellCtx()
				r, err := runCell(wctx, sc, runner, cellOptions(alg, mode, sc.Seed, *skipLastHops), oracle)
				cancel()
				if err != nil {
					if ctx.Err() != nil {
						interrupted()
					}
					if errors.Is(err, apsp.ErrDeadlineExceeded) {
						var ie *apsp.InterruptError
						errors.As(err, &ie)
						fmt.Fprintf(os.Stderr, "%-24s %-18s %-8s SKIPPED: exceeded %v (in %s after %d rounds)\n",
							sc.Name(), alg, mode, *timeout, ie.Stage, ie.CompletedRounds)
						continue
					}
					log.Fatalf("%s %v %s: %v", sc.Name(), alg, mode, err)
				}
				byMode[mode] = r
				rows = append(rows, r)
				if !*quiet {
					fmt.Fprintf(os.Stderr, "%-24s %-18s %-8s rounds=%-7d wall=%.0fms\n",
						sc.Name(), alg, mode, r.Rounds, r.WallMS)
				}
			}
			// Every execution mode must be bit-identical on every distributed
			// column (DESIGN.md §2.4). Whenever the sweep ran more than one
			// mode, enforce it pairwise against the first mode that produced
			// a row.
			refMode := ""
			for _, mode := range execModes {
				r, ok := byMode[mode]
				if !ok {
					continue
				}
				if refMode == "" {
					refMode = mode
					continue
				}
				if err := diffDistributedColumns(byMode[refMode], r); err != nil {
					log.Fatalf("%s %v: %s execution diverged from %s: %v", sc.Name(), alg, mode, refMode, err)
				}
			}
		}
	}

	flush()
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}

// row is one sweep cell: scenario x algorithm x execution mode.
type row struct {
	Scenario          string     `json:"scenario"`
	Family            string     `json:"family"`
	N                 int        `json:"n"`
	M                 int        `json:"m"`
	Seed              int64      `json:"seed"`
	Algorithm         string     `json:"algorithm"`
	Exec              string     `json:"exec"`
	H                 int        `json:"h"`
	BlockerSetSize    int        `json:"blocker_set_size"`
	Rounds            int        `json:"rounds"`
	Messages          int64      `json:"messages"`
	Words             int64      `json:"words"`
	MaxNodeCongestion int64      `json:"max_node_congestion"`
	WallMS            float64    `json:"wall_ms"`
	Allocs            uint64     `json:"allocs"`
	AllocBytes        uint64     `json:"alloc_bytes"`
	Checked           bool       `json:"checked"`
	Stages            []stageCol `json:"stages"`
}

// stageCol is one executed pipeline stage within a row: rounds are
// deterministic (a distributed column), wall-clock is host cost.
type stageCol struct {
	Name   string  `json:"name"`
	Rounds int     `json:"rounds"`
	WallMS float64 `json:"wall_ms"`
}

// cellOptions maps one sweep cell onto run options (shared by the warm-up
// and recorded cells so both exercise the same exec mode).
func cellOptions(alg apsp.Algorithm, mode string, seed int64, skipLastHops bool) apsp.Options {
	return apsp.Options{
		Algorithm:    alg,
		Parallel:     mode == "sharded",
		SkipLastHops: skipLastHops,
		Seed:         seed,
	}
}

// execMode names the execution mode cellOptions maps onto Parallel.
func execMode(parallel bool) string {
	if parallel {
		return "sharded"
	}
	return "seq"
}

// runCell executes one sweep cell on the scenario's warm Runner under the
// cell's context (deadline and SIGINT) and, when oracle is non-nil,
// validates the distances against it.
func runCell(ctx context.Context, sc apsp.Scenario, runner *apsp.Runner, opt apsp.Options, oracle func([][]int64) error) (row, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := runner.RunContext(ctx, opt)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return row{}, err
	}
	checked := false
	if oracle != nil {
		if err := oracle(res.Dist); err != nil {
			return row{}, err
		}
		checked = true
	}
	s := res.Stats
	stages := make([]stageCol, len(s.Stages))
	for i, st := range s.Stages {
		stages[i] = stageCol{Name: st.Name, Rounds: st.Rounds, WallMS: st.WallMS}
	}
	return row{
		Scenario:          sc.Name(),
		Family:            sc.Family,
		N:                 s.N,
		M:                 s.M,
		Seed:              sc.Seed,
		Algorithm:         opt.Algorithm.String(),
		Exec:              execMode(opt.Parallel),
		H:                 s.H,
		BlockerSetSize:    s.BlockerSetSize,
		Rounds:            s.Rounds,
		Messages:          s.Messages,
		Words:             s.Words,
		MaxNodeCongestion: s.MaxNodeCongestion,
		WallMS:            float64(wall.Microseconds()) / 1000,
		Allocs:            after.Mallocs - before.Mallocs,
		AllocBytes:        after.TotalAlloc - before.TotalAlloc,
		Checked:           checked,
		Stages:            stages,
	}, nil
}

// diffDistributedColumns compares the columns that must not depend on the
// execution mode.
func diffDistributedColumns(seq, sharded row) error {
	cols := []struct {
		name string
		a, b int64
	}{
		{"rounds", int64(seq.Rounds), int64(sharded.Rounds)},
		{"messages", seq.Messages, sharded.Messages},
		{"words", seq.Words, sharded.Words},
		{"max_node_congestion", seq.MaxNodeCongestion, sharded.MaxNodeCongestion},
		{"blocker_set_size", int64(seq.BlockerSetSize), int64(sharded.BlockerSetSize)},
		{"h", int64(seq.H), int64(sharded.H)},
	}
	for _, c := range cols {
		if c.a != c.b {
			return fmt.Errorf("%s: seq %d vs sharded %d", c.name, c.a, c.b)
		}
	}
	// The per-stage round decomposition is charged by the same schedules,
	// so it must not depend on the execution mode either.
	if len(seq.Stages) != len(sharded.Stages) {
		return fmt.Errorf("stage count: seq %d vs sharded %d", len(seq.Stages), len(sharded.Stages))
	}
	for i := range seq.Stages {
		a, b := seq.Stages[i], sharded.Stages[i]
		if a.Name != b.Name || a.Rounds != b.Rounds {
			return fmt.Errorf("stage %d: seq %s=%d vs sharded %s=%d", i, a.Name, a.Rounds, b.Name, b.Rounds)
		}
	}
	return nil
}

// internalGraph copies a public graph into the internal representation
// the oracles and the protocol-level lemma tables take.
func internalGraph(g *apsp.Graph) *graph.Graph {
	og := graph.New(g.N(), g.Directed())
	g.Edges(func(u, v int, w int64) { og.MustAddEdge(u, v, w) })
	return og
}

// oracleFor builds the per-scenario distance validator. The default is the
// full Floyd-Warshall matrix (exact, all pairs, all cells). With samples >
// 0 it instead draws that many sources (deterministically from the
// scenario seed) and validates their full rows against on-demand Dijkstra
// — O(samples · m log n) time and O(n) oracle memory, which is what lets an
// n=4096 run oracle-check at all without a second set of O(n²)
// Floyd-Warshall tables.
func oracleFor(og *graph.Graph, samples int, seed int64) func(dist [][]int64) error {
	if samples <= 0 {
		oracle := graph.FloydWarshall(og)
		return func(dist [][]int64) error {
			for x := range oracle {
				for t := range oracle[x] {
					if got := dist[x][t]; got != oracle[x][t] {
						return fmt.Errorf("distance mismatch at (%d,%d): got %d, oracle %d",
							x, t, got, oracle[x][t])
					}
				}
			}
			return nil
		}
	}
	if samples > og.N {
		samples = og.N
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0bac1e))
	srcs := rng.Perm(og.N)[:samples]
	rows := make(map[int][]int64, samples)
	return func(dist [][]int64) error {
		for _, src := range srcs {
			want, ok := rows[src]
			if !ok {
				want = graph.Dijkstra(og, src)
				rows[src] = want
			}
			for t, w := range want {
				if got := dist[src][t]; got != w {
					return fmt.Errorf("distance mismatch at sampled (%d,%d): got %d, Dijkstra %d",
						src, t, got, w)
				}
			}
		}
		return nil
	}
}

// expandScenarios turns the -scenarios/-sizes/-seeds flags into the corpus:
// explicit scenario names pass through, family names cross with every size
// and seed.
func expandScenarios(scenarios string, sizes []int, seeds []int64) ([]apsp.Scenario, error) {
	var out []apsp.Scenario
	for _, tok := range splitList(scenarios) {
		if strings.Contains(tok, "-n") {
			sc, err := apsp.ParseScenario(tok)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
			continue
		}
		if apsp.FamilyDescription(tok) == "" {
			return nil, fmt.Errorf("unknown scenario family %q (have %v)", tok, apsp.Families())
		}
		out = append(out, familyScenarios(tok, sizes, seeds)...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scenario list")
	}
	return out, nil
}

// familyScenarios crosses one registered family with every size and seed.
func familyScenarios(family string, sizes []int, seeds []int64) []apsp.Scenario {
	var out []apsp.Scenario
	for _, n := range sizes {
		for _, s := range seeds {
			out = append(out, apsp.Scenario{Family: family, N: n, Seed: s})
		}
	}
	return out
}

func parseAlgorithms(s string) ([]apsp.Algorithm, error) {
	var out []apsp.Algorithm
	for _, tok := range splitList(s) {
		a, err := apsp.ParseAlgorithm(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty algorithm list")
	}
	return out, nil
}

func parseExecModes(s string) ([]string, error) {
	var out []string
	for _, tok := range splitList(s) {
		if tok != "seq" && tok != "sharded" {
			return nil, fmt.Errorf("unknown exec mode %q (want seq|sharded)", tok)
		}
		out = append(out, tok)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty exec-mode list")
	}
	return out, nil
}

// parseSeeds parses a comma-separated seed list; unlike sizes, seeds may
// be negative (scenario names round-trip them as "s-3").
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, tok := range splitList(s) {
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty seed list")
	}
	return out, nil
}

func parseInts(s, what string) ([]int, error) {
	var out []int
	for _, tok := range splitList(s) {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad %s %q", what, tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", what)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// report is the EXPERIMENTS.json envelope. It deliberately carries no
// timestamp: apart from the host-cost columns (wall_ms, allocs), a
// regenerated sweep should diff clean against the committed artifact.
type report struct {
	Suite   string `json:"suite"`
	Cores   int    `json:"cores"`
	Go      string `json:"go"`
	Checked bool   `json:"checked"`
	Rows    []row  `json:"rows"`
}

func writeJSON(path string, rows []row, checked bool) error {
	rep := report{
		Suite:   "experiment",
		Cores:   runtime.NumCPU(),
		Go:      runtime.Version(),
		Checked: checked,
		Rows:    rows,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return graphio.WriteFileAtomic(path, append(buf, '\n'))
}

func writeCSV(path string, rows []row) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := []string{"scenario", "family", "n", "m", "seed", "algorithm", "exec", "h",
		"blocker_set_size", "rounds", "messages", "words", "max_node_congestion",
		"wall_ms", "allocs", "alloc_bytes", "checked", "stage_rounds"}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		stages := make([]string, len(r.Stages))
		for i, st := range r.Stages {
			stages[i] = st.Name + ":" + strconv.Itoa(st.Rounds)
		}
		rec := []string{
			r.Scenario, r.Family,
			strconv.Itoa(r.N), strconv.Itoa(r.M),
			strconv.FormatInt(r.Seed, 10),
			r.Algorithm, r.Exec,
			strconv.Itoa(r.H), strconv.Itoa(r.BlockerSetSize), strconv.Itoa(r.Rounds),
			strconv.FormatInt(r.Messages, 10), strconv.FormatInt(r.Words, 10),
			strconv.FormatInt(r.MaxNodeCongestion, 10),
			strconv.FormatFloat(r.WallMS, 'f', 3, 64),
			strconv.FormatUint(r.Allocs, 10), strconv.FormatUint(r.AllocBytes, 10),
			strconv.FormatBool(r.Checked),
			strings.Join(stages, ";"),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return graphio.WriteFileAtomic(path, buf.Bytes())
}

// rejectFlagConflicts aborts when any of the named flags was explicitly
// set: the mode named in `with` would silently ignore it.
func rejectFlagConflicts(with string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				log.Fatalf("-%s conflicts with %s", f.Name, with)
			}
		}
	})
}

// startProfiles begins CPU profiling to cpuPath (when non-empty) and
// returns a stop function that ends the CPU profile and writes a heap
// profile to memPath (when non-empty). The returned stop is never nil and
// must be called exactly once, after the workload; a run that dies early
// through log.Fatal writes no profiles.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: close CPU profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("profiling: write heap profile: %w", err)
		}
		return f.Close()
	}, nil
}
