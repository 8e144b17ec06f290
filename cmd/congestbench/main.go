// Command congestbench regenerates the experiment tables of EXPERIMENTS.md:
// the empirical counterpart of Table 1 of the paper plus one experiment per
// quantitative lemma (blocker-set size, selection steps, construction
// rounds, reversed q-sink rounds, bottleneck elimination, good-set density,
// frame-stage shrinkage).
//
// Usage:
//
//	congestbench -exp table1 [-sizes 16,24,32,48,64] [-seeds 2]
//	congestbench -exp all [-o EXPERIMENTS.md.new] [-timeout 30s]
//
// With -o the report is written atomically (temp+rename) instead of to
// stdout, and a SIGINT flushes the rows completed so far rather than dying
// with nothing written. -timeout bounds each measured cell through the
// execution stack's context plumbing; a cell that exceeds it is skipped
// with a warning on stderr and its table row dropped.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/core"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/graphio"
	"congestapsp/internal/profiling"
	"congestapsp/internal/qsink"
	"congestapsp/internal/unweighted"
)

// flushPartial writes the report rows accumulated so far (atomic
// temp+rename when -o is set; a no-op when the report streams to stdout).
// It is called on normal exit, on SIGINT, and before any fatal error, so a
// long sweep never dies with nothing written.
var flushPartial = func() {}

// stopProfilesOnExit flushes the pprof profiles on the interrupt path,
// where the deferred stop in main never runs.
var stopProfilesOnExit = func() error { return nil }

// fatalf is log.Fatalf preceded by a partial-report flush.
func fatalf(format string, v ...any) {
	flushPartial()
	log.Fatalf(format, v...)
}

// interrupted handles SIGINT observed through the context plumbing: flush
// what completed, stop the profiles, and exit with the conventional 130.
func interrupted() {
	fmt.Fprintln(os.Stderr, "congestbench: interrupted; flushing partial report")
	flushPartial()
	stopProfilesOnExit()
	os.Exit(130)
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1|blockersize|selectionsteps|blockerrounds|qsink|bottleneck|goodset|frames|hsweep|bandwidth|unweighted|all")
	sizesFlag := flag.String("sizes", "16,24,32,48,64", "comma-separated node counts")
	seeds := flag.Int("seeds", 2, "seeds per configuration (results averaged)")
	verify := flag.Bool("verify", true, "cross-check distances against Floyd-Warshall")
	parallel := flag.Bool("parallel", false, "source-shard the per-source sub-runs across a worker pool (bit-identical results)")
	outPath := flag.String("o", "", "write the report atomically to this file instead of stdout (SIGINT flushes partial rows)")
	timeout := flag.Duration("timeout", 0, "per-cell deadline; a cell that exceeds it is skipped and its row dropped (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	stopProfilesOnExit = stopProfiles
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatal(err)
	}

	// SIGINT cancels the executing cell at its next round or stage boundary
	// (the context plumbing); the handlers above flush whatever rows the
	// report already holds.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var buf bytes.Buffer
	var out io.Writer = os.Stdout
	if *outPath != "" {
		out = &buf
		flushPartial = func() {
			if err := graphio.WriteFileAtomic(*outPath, buf.Bytes()); err != nil {
				log.Printf("congestbench: flush %s: %v", *outPath, err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *outPath, buf.Len())
		}
	}

	h := harness{
		sizes: sizes, seeds: *seeds, verify: *verify, parallel: *parallel,
		ctx: ctx, timeout: *timeout, out: out,
	}

	all := map[string]func(){
		"table1":         h.table1,
		"blockersize":    h.blockerSize,
		"selectionsteps": h.selectionSteps,
		"blockerrounds":  h.blockerRounds,
		"qsink":          h.qsinkRounds,
		"bottleneck":     h.bottleneck,
		"goodset":        h.goodset,
		"frames":         h.frames,
		"hsweep":         h.hSweep,
		"bandwidth":      h.bandwidthSweep,
		"unweighted":     h.unweightedRounds,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "blockersize", "selectionsteps", "blockerrounds", "qsink", "bottleneck", "goodset", "frames", "hsweep", "bandwidth", "unweighted"} {
			all[name]()
		}
	} else {
		fn, ok := all[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		fn()
	}
	flushPartial()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 4 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

type harness struct {
	sizes    []int
	seeds    int
	verify   bool
	parallel bool
	// ctx is the signal-scoped context: canceled by SIGINT, parent of every
	// per-cell deadline.
	ctx context.Context
	// timeout bounds each measured cell (0 = unbounded).
	timeout time.Duration
	// out receives the report rows (a buffer when -o is set, else stdout).
	out io.Writer
}

// cellCtx derives one cell's context from the signal context, optionally
// bounded by the per-cell deadline.
func (h harness) cellCtx() (context.Context, context.CancelFunc) {
	if h.timeout > 0 {
		return context.WithTimeout(h.ctx, h.timeout)
	}
	return context.WithCancel(h.ctx)
}

// handle classifies a cell error: nil proceeds, SIGINT exits through
// interrupted, a blown per-cell deadline reports skip=true (the caller
// drops the affected row), anything else is fatal.
func (h harness) handle(err error, what string) (skip bool) {
	if err == nil {
		return false
	}
	if h.ctx.Err() != nil {
		interrupted()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "congestbench: %s SKIPPED: exceeded %v (%v)\n", what, h.timeout, err)
		return true
	}
	fatalf("%s: %v", what, err)
	return false
}

func (h harness) graphFor(n int, seed int64) *graph.Graph {
	return graph.RandomConnected(graph.GenConfig{N: n, Directed: true, Seed: seed, MaxWeight: 50}, 4*n)
}

// fitExponent returns the least-squares slope of log(y) against log(x).
func fitExponent(xs []int, ys []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(float64(xs[i])), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	k := float64(len(xs))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// session builds a warm core.Session for g (the CLI analogue of
// apsp.Runner). Callers keep it in a local scoped to the graph's lifetime
// — every run on the same graph shares it, and the network (with its
// grow-only arenas and clone fleet) is released with the graph instead of
// being retained for the whole process.
func (h harness) session(g *graph.Graph) *core.Session {
	s, err := core.NewSession(g)
	if err != nil {
		fatalf("%v", err)
	}
	return s
}

// stageRounds maps each executed pipeline stage's name to the rounds it
// charged.
func stageRounds(res *core.Result) map[string]int {
	m := make(map[string]int, len(res.Stages))
	for _, st := range res.Stages {
		m[st.Name] = st.Rounds
	}
	return m
}

// runVariant runs one deadline-bounded cell on the warm session. A nil
// result means the cell blew its -timeout budget (already reported on
// stderr); the caller drops the affected row.
func (h harness) runVariant(s *core.Session, g *graph.Graph, v core.Variant, seed int64) *core.Result {
	wctx, cancel := h.cellCtx()
	res, err := s.RunContext(wctx, core.Options{Variant: v, Seed: seed, SkipLastEdges: true, Parallel: h.parallel})
	cancel()
	if h.handle(err, fmt.Sprintf("%v on n=%d", v, g.N)) {
		return nil
	}
	if h.verify {
		want := graph.FloydWarshall(g)
		for x := 0; x < g.N; x++ {
			for t := 0; t < g.N; t++ {
				if res.Dist[x][t] != want[x][t] {
					fatalf("%v: wrong distance (%d,%d)", v, x, t)
				}
			}
		}
	}
	return res
}

// table1: empirical Table 1 — full-APSP round counts per variant.
func (h harness) table1() {
	fmt.Fprintln(h.out, "## E1 (Table 1): APSP round complexity by algorithm")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | det n^4/3 (paper) | det n^3/2 [2] | randomized [13,1] | broadcast Step 6 | |Q| (paper) |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|")
	variants := []core.Variant{core.Det43, core.Det32, core.Rand43, core.BroadcastStep6}
	series := make([][]float64, len(variants))
	var used []int
	for _, n := range h.sizes {
		avg := make([]float64, len(variants))
		var qsz float64
		complete := true
		for s := 0; s < h.seeds && complete; s++ {
			g := h.graphFor(n, int64(n*1000+s))
			sess := h.session(g) // all four variants share one warm session
			for vi, v := range variants {
				res := h.runVariant(sess, g, v, int64(s))
				if res == nil {
					complete = false
					break
				}
				avg[vi] += float64(res.Stats.Rounds) / float64(h.seeds)
				if v == core.Det43 {
					qsz += float64(res.Stats.QSize) / float64(h.seeds)
				}
			}
		}
		if !complete {
			continue // a timed-out cell: the row's averages would be partial
		}
		fmt.Fprintf(h.out, "| %d | %.0f | %.0f | %.0f | %.0f | %.1f |\n", n, avg[0], avg[1], avg[2], avg[3], qsz)
		used = append(used, n)
		for vi := range variants {
			series[vi] = append(series[vi], avg[vi])
		}
	}
	fmt.Fprintln(h.out)
	fmt.Fprintf(h.out, "fitted growth exponents: det43=%.2f det32=%.2f rand43=%.2f bcast=%.2f (theory: 1.33 / 1.50 / 1.33 / 1.67, all x polylog)\n\n",
		fitExponent(used, series[0]), fitExponent(used, series[1]),
		fitExponent(used, series[2]), fitExponent(used, series[3]))

	// Per-step decomposition for the paper's variant: the clean exponents
	// live here (Step 1/7 are O(n*h) with no polylog).
	fmt.Fprintln(h.out, "### E1b: per-step rounds of the deterministic n^4/3 algorithm")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | step1 CSSSP | step2 blocker | step3 inSSSP | step4 bcast | step6 qsink | step7 extend |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|--:|")
	var s1, s7 []float64
	var usedB []int
	for _, n := range h.sizes {
		g := h.graphFor(n, int64(n*1000))
		res := h.runVariant(h.session(g), g, core.Det43, 0)
		if res == nil {
			continue
		}
		st := stageRounds(res)
		fmt.Fprintf(h.out, "| %d | %d | %d | %d | %d | %d | %d |\n", n,
			st["step1-csssp"], st["step2-blocker"], st["step3-insssp"], st["step4-bcast"], st["step6-qsink"], st["step7-extend"])
		usedB = append(usedB, n)
		s1 = append(s1, float64(st["step1-csssp"]))
		s7 = append(s7, float64(st["step7-extend"]))
	}
	fmt.Fprintln(h.out)
	fmt.Fprintf(h.out, "fitted exponents: step1=%.2f step7=%.2f (theory: both n*h = n^1.33 exactly)\n\n",
		fitExponent(usedB, s1), fitExponent(usedB, s7))
}

// buildColl assembles the h-hop CSSSP collection one blocker/q-sink cell
// measures against, on a network armed with the cell's context. ok=false
// means the build itself blew the deadline (already reported).
func (h harness) buildColl(ctx context.Context, g *graph.Graph, hp int) (coll *csssp.Collection, nw *congest.Network, ok bool) {
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		fatalf("%v", err)
	}
	nw.SetContext(ctx)
	srcs := make([]int, g.N)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err = csssp.Build(nw, g, srcs, hp, bford.Out)
	if h.handle(err, fmt.Sprintf("csssp build n=%d", g.N)) {
		return nil, nil, false
	}
	return coll, nw, true
}

func hopParam(n int) int { return int(math.Ceil(math.Pow(float64(n), 1.0/3))) }

// blockerSize: Lemma 3.10 — |Q| = O(n log n / h) for every construction.
func (h harness) blockerSize() {
	fmt.Fprintln(h.out, "## E2 (Lemma 3.10): blocker set size vs n ln(n)/h")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | h | n*ln(n)/h | det (Alg 2') | greedy [2] | sampled [13] |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|")
	for _, n := range h.sizes {
		hp := hopParam(n)
		bound := float64(n) * math.Log(float64(n)) / float64(hp)
		var det, gre, smp float64
		complete := true
		for s := 0; s < h.seeds && complete; s++ {
			g := h.graphFor(n, int64(n*100+s))
			for _, m := range []struct {
				mode blocker.Mode
				dst  *float64
			}{{blocker.Deterministic, &det}, {blocker.Greedy, &gre}, {blocker.RandomSample, &smp}} {
				wctx, cancel := h.cellCtx()
				coll, nw, ok := h.buildColl(wctx, g, hp)
				if !ok {
					cancel()
					complete = false
					break
				}
				res, err := blocker.Compute(nw, coll, blocker.Params{Mode: m.mode, Seed: int64(s)})
				cancel()
				if h.handle(err, fmt.Sprintf("blocker %v n=%d", m.mode, n)) {
					complete = false
					break
				}
				*m.dst += float64(len(res.Q)) / float64(h.seeds)
			}
		}
		if !complete {
			continue
		}
		fmt.Fprintf(h.out, "| %d | %d | %.1f | %.1f | %.1f | %.1f |\n", n, hp, bound, det, gre, smp)
	}
	fmt.Fprintln(h.out)
}

// selectionSteps: Lemma 3.9 — the while loop runs O(log^3 n / (delta^3 eps^2)) times.
func (h harness) selectionSteps() {
	fmt.Fprintln(h.out, "## E3 (Lemma 3.9): selection steps of the deterministic construction")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | selection steps | single-node | good-set | fallback | log2(n)^3 |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|")
	for _, n := range h.sizes {
		hp := hopParam(n)
		var steps, single, good, fall float64
		complete := true
		for s := 0; s < h.seeds && complete; s++ {
			g := h.graphFor(n, int64(n*100+s))
			wctx, cancel := h.cellCtx()
			coll, nw, ok := h.buildColl(wctx, g, hp)
			if !ok {
				cancel()
				complete = false
				break
			}
			res, err := blocker.Compute(nw, coll, blocker.Params{Mode: blocker.Deterministic})
			cancel()
			if h.handle(err, fmt.Sprintf("blocker selection n=%d", n)) {
				complete = false
				break
			}
			k := float64(h.seeds)
			steps += float64(res.Stats.SelectionSteps) / k
			single += float64(res.Stats.SingleSelections) / k
			good += float64(res.Stats.GoodSetSelections) / k
			fall += float64(res.Stats.FallbackSteps) / k
		}
		if !complete {
			continue
		}
		l := math.Log2(float64(n))
		fmt.Fprintf(h.out, "| %d | %.1f | %.1f | %.1f | %.1f | %.0f |\n", n, steps, single, good, fall, l*l*l)
	}
	fmt.Fprintln(h.out)
}

// blockerRounds: Corollary 3.13 vs the n*|Q| term of the greedy baseline.
func (h harness) blockerRounds() {
	fmt.Fprintln(h.out, "## E4 (Corollary 3.13): blocker construction rounds, set cover vs greedy")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | h | det rounds | greedy rounds | greedy n*|Q| term | det/nh |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|")
	var detR, greR []float64
	var used []int
	for _, n := range h.sizes {
		hp := hopParam(n)
		var det, gre, nq float64
		complete := true
		for s := 0; s < h.seeds && complete; s++ {
			g := h.graphFor(n, int64(n*100+s))
			wctx, cancel := h.cellCtx()
			collD, nwD, ok := h.buildColl(wctx, g, hp)
			if !ok {
				cancel()
				complete = false
				break
			}
			resD, err := blocker.Compute(nwD, collD, blocker.Params{Mode: blocker.Deterministic})
			cancel()
			if h.handle(err, fmt.Sprintf("blocker det n=%d", n)) {
				complete = false
				break
			}
			wctx, cancel = h.cellCtx()
			collG, nwG, ok := h.buildColl(wctx, g, hp)
			if !ok {
				cancel()
				complete = false
				break
			}
			resG, err := blocker.Compute(nwG, collG, blocker.Params{Mode: blocker.Greedy})
			cancel()
			if h.handle(err, fmt.Sprintf("blocker greedy n=%d", n)) {
				complete = false
				break
			}
			k := float64(h.seeds)
			det += float64(resD.Stats.Rounds) / k
			gre += float64(resG.Stats.Rounds) / k
			nq += float64(n*len(resG.Q)) / k
		}
		if !complete {
			continue
		}
		fmt.Fprintf(h.out, "| %d | %d | %.0f | %.0f | %.0f | %.1f |\n", n, hp, det, gre, nq, det/float64(n*hp))
		used = append(used, n)
		detR = append(detR, det)
		greR = append(greR, gre)
	}
	fmt.Fprintln(h.out)
	fmt.Fprintf(h.out, "fitted exponents: det=%.2f greedy=%.2f (theory: |S|h = n^1.33 x polylog vs nh + n|Q| -> n^1.67-ish as |Q| grows)\n\n",
		fitExponent(used, detR), fitExponent(used, greR))
}

// qsinkRounds: Lemmas 4.1/4.5 — Step 6 alone, pipelined vs broadcast.
func (h harness) qsinkRounds() {
	fmt.Fprintln(h.out, "## E5 (Lemmas 4.1, 4.5): reversed q-sink delivery rounds")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | |Q| | roundrobin | frames | broadcast n*|Q| | pipeline msgs |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|")
	for _, n := range h.sizes {
		hp := hopParam(n)
		g := h.graphFor(n, int64(n*100))
		wctx, cancel := h.cellCtx()
		coll, nwb, ok := h.buildColl(wctx, g, hp)
		if !ok {
			cancel()
			continue
		}
		bres, err := blocker.Compute(nwb, coll, blocker.Params{Mode: blocker.Deterministic})
		cancel()
		if h.handle(err, fmt.Sprintf("qsink blocker n=%d", n)) {
			continue
		}
		Q := bres.Q
		if len(Q) == 0 {
			continue
		}
		delta := graph.BlockerDelta(g, Q)
		row := make(map[qsink.Scheduler]*qsink.Stats)
		complete := true
		for _, sch := range []qsink.Scheduler{qsink.RoundRobin, qsink.Frames, qsink.BroadcastAll} {
			nw, err := congest.NewNetwork(g, 1)
			if err != nil {
				fatalf("%v", err)
			}
			wctx, cancel := h.cellCtx()
			nw.SetContext(wctx)
			res, err := qsink.Run(nw, g, Q, delta, qsink.Params{Scheduler: sch})
			cancel()
			if h.handle(err, fmt.Sprintf("qsink %v n=%d", sch, n)) {
				complete = false
				break
			}
			if h.verify {
				checkQsink(g, Q, res)
			}
			st := res.Stats
			row[sch] = &st
		}
		if !complete {
			continue
		}
		fmt.Fprintf(h.out, "| %d | %d | %d | %d | %d | %d |\n", n, len(Q),
			row[qsink.RoundRobin].RoundsTotal, row[qsink.Frames].RoundsTotal,
			row[qsink.BroadcastAll].RoundsTotal, row[qsink.RoundRobin].PipelineMessages)
	}
	fmt.Fprintln(h.out)
}

func checkQsink(g *graph.Graph, Q []int, res *qsink.Result) {
	want := graph.BlockerDelta(g, Q)
	for ci := range Q {
		for x := 0; x < g.N; x++ {
			got, exp := res.AtBlocker[ci][x], want.At(x, ci)
			if exp >= graph.Inf {
				exp = graph.Inf
			}
			if got != exp && !(got >= graph.Inf && exp >= graph.Inf) {
				fatalf("qsink wrong at (c=%d, x=%d): %d vs %d", Q[ci], x, got, exp)
			}
		}
	}
}

// bottleneck: Lemmas A.15-A.17 — bottleneck count and load reduction. The
// lemma regime (mult=1: |B| <= sqrt(q), loads <= n*sqrt(q)) and a stress
// regime (mult=0.05) are reported separately.
func (h harness) bottleneck() {
	fmt.Fprintln(h.out, "## E6 (Lemmas A.15-A.17): bottleneck elimination")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | workload | mult | |Q| | bound | |B| | sqrt(q) cap (mult=1) | load before | load after |")
	fmt.Fprintln(h.out, "|--:|--|--:|--:|--:|--:|--:|--:|--:|")
	for _, n := range h.sizes {
		for _, wl := range []struct {
			name string
			g    *graph.Graph
		}{
			{"star", graph.Star(graph.GenConfig{N: n, Seed: int64(n), MaxWeight: 20})},
			{"grid", gridFor(n)},
		} {
			var Q []int
			for v := 0; v < n; v += 4 {
				Q = append(Q, v)
			}
			for _, mult := range []float64{1.0, 0.05} {
				nw, err := congest.NewNetwork(wl.g, 1)
				if err != nil {
					fatalf("%v", err)
				}
				wctx, cancel := h.cellCtx()
				nw.SetContext(wctx)
				res, err := qsink.Run(nw, wl.g, Q, graph.BlockerDelta(wl.g, Q), qsink.Params{Scheduler: qsink.RoundRobin, CongestionMult: mult})
				cancel()
				if h.handle(err, fmt.Sprintf("bottleneck %s n=%d mult=%.2f", wl.name, n, mult)) {
					continue
				}
				if h.verify {
					checkQsink(wl.g, Q, res)
				}
				st := res.Stats
				cap := "-"
				if mult == 1.0 {
					cap = fmt.Sprintf("%.1f", math.Sqrt(float64(len(Q))))
					if float64(st.BottleneckCount) > math.Sqrt(float64(len(Q)))+1 {
						cap += " VIOLATED"
					}
				}
				fmt.Fprintf(h.out, "| %d | %s | %.2f | %d | %d | %d | %s | %d | %d |\n",
					n, wl.name, mult, len(Q), st.CongestionBound, st.BottleneckCount,
					cap, st.MaxLoadBefore, st.MaxLoadAfter)
			}
		}
	}
	fmt.Fprintln(h.out)
}

func gridFor(n int) *graph.Graph {
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	return graph.Grid(side, (n+side-1)/side, graph.GenConfig{Seed: int64(n), MaxWeight: 20})
}

// goodset: Lemma 3.8 — density of good sample points.
func (h harness) goodset() {
	fmt.Fprintln(h.out, "## E7 (Lemma 3.8): good sample points in the pairwise-independent space")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "(disjoint-paths workloads: no vertex covers more than ~1/k of the paths,")
	fmt.Fprintln(h.out, "so Step 9's single-node rule fails and the good-set branch must run;")
	fmt.Fprintln(h.out, "delta=0.5, full-space exhaustive search)")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| k paths x h | n | good-set selections | fallbacks | good points | scanned | fraction | Lemma 3.8 floor |")
	fmt.Fprintln(h.out, "|--|--:|--:|--:|--:|--:|--:|--:|")
	for _, cfg := range []struct{ k, h int }{{12, 3}, {16, 3}, {20, 3}, {16, 4}} {
		g := graph.DisjointPaths(cfg.k, cfg.h, 1000, graph.GenConfig{Seed: int64(cfg.k*10 + cfg.h), MaxWeight: 4})
		wctx, cancel := h.cellCtx()
		coll, nw, ok := h.buildColl(wctx, g, cfg.h)
		if !ok {
			cancel()
			continue
		}
		res, err := blocker.Compute(nw, coll, blocker.Params{
			Mode: blocker.Deterministic, Delta: 0.5, UseFullSpace: true,
		})
		cancel()
		if h.handle(err, fmt.Sprintf("goodset %dx%d", cfg.k, cfg.h)) {
			continue
		}
		frac := 0.0
		if res.Stats.PointsScanned > 0 {
			frac = float64(res.Stats.GoodPoints) / float64(res.Stats.PointsScanned)
		}
		fmt.Fprintf(h.out, "| %dx%d | %d | %d | %d | %d | %d | %.3f | 0.125 |\n",
			cfg.k, cfg.h, g.N, res.Stats.GoodSetSelections, res.Stats.FallbackSteps,
			res.Stats.GoodPoints, res.Stats.PointsScanned, frac)
	}
	fmt.Fprintln(h.out)
}

// frames: Lemma 4.8 — per-stage shrinkage of max |Q_{v,i}|. With the
// paper's quota the stage-0 budget already covers all traffic at these
// sizes, so a scaled-down quota (x0.02) is used to surface the multi-stage
// shrinkage the lemma describes.
func (h harness) frames() {
	fmt.Fprintln(h.out, "## E8 (Lemma 4.8): frame-stage shrinkage of max |Q_v,i|")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | |Q| | quota | stages | max|Qvi| per stage | pipeline rounds |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--|--:|")
	for _, n := range h.sizes {
		g := h.graphFor(n, int64(n*7))
		var Q []int
		for v := 0; v < n; v += 3 {
			Q = append(Q, v)
		}
		for _, scale := range []float64{1.0, 0.02} {
			nw, err := congest.NewNetwork(g, 1)
			if err != nil {
				fatalf("%v", err)
			}
			wctx, cancel := h.cellCtx()
			nw.SetContext(wctx)
			res, err := qsink.Run(nw, g, Q, graph.BlockerDelta(g, Q), qsink.Params{Scheduler: qsink.Frames, FrameQuotaScale: scale})
			cancel()
			if h.handle(err, fmt.Sprintf("frames n=%d scale=%.2f", n, scale)) {
				continue
			}
			if h.verify {
				checkQsink(g, Q, res)
			}
			st := res.Stats
			var parts []string
			for _, m := range st.FrameQviMax {
				parts = append(parts, strconv.Itoa(m))
			}
			fmt.Fprintf(h.out, "| %d | %d | x%.2f | %d | %s | %d |\n", n, len(Q), scale, st.FrameStages, strings.Join(parts, " -> "), st.PipelineRounds)
		}
	}
	fmt.Fprintln(h.out)
}

// hSweep: ablation of the hop parameter. Theorem 1.1 balances the O~(n*h)
// cost of Steps 1/2/7 against the O~(n*sqrt(q)) = O~(n*sqrt(n log n / h))
// cost of Step 6 at h = n^(1/3); the sweep shows where the balance falls
// with real constants.
func (h harness) hSweep() {
	fmt.Fprintln(h.out, "## E10 (Theorem 1.1 ablation): total rounds vs hop parameter h")
	fmt.Fprintln(h.out)
	n := h.sizes[len(h.sizes)-1]
	g := h.graphFor(n, int64(n*1000))
	fmt.Fprintf(h.out, "(n = %d; theory balance point h = n^(1/3) = %.1f)\n\n", n, math.Pow(float64(n), 1.0/3))
	fmt.Fprintln(h.out, "| h | rounds | |Q| | step1 | step2 blocker | step6 qsink | step7 |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|--:|--:|")
	maxH := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	sess := h.session(g) // the whole h sweep shares one warm session
	for hp := 2; hp <= maxH; hp += 2 {
		wctx, cancel := h.cellCtx()
		res, err := sess.RunContext(wctx, core.Options{Variant: core.Det43, H: hp, SkipLastEdges: true, Parallel: h.parallel})
		cancel()
		if h.handle(err, fmt.Sprintf("hsweep h=%d", hp)) {
			continue
		}
		st := stageRounds(res)
		fmt.Fprintf(h.out, "| %d | %d | %d | %d | %d | %d | %d |\n",
			hp, res.Stats.Rounds, res.Stats.QSize, st["step1-csssp"], st["step2-blocker"], st["step6-qsink"], st["step7-extend"])
	}
	fmt.Fprintln(h.out)
}

// bandwidthSweep: rounds vs per-link bandwidth B. The paper's model allows
// a constant number of values per edge per round; the sweep shows which
// steps are bandwidth-bound (broadcasts, pipelines) versus latency-bound
// (Bellman-Ford waves).
func (h harness) bandwidthSweep() {
	fmt.Fprintln(h.out, "## E11 (model ablation): rounds vs per-link bandwidth")
	fmt.Fprintln(h.out)
	n := h.sizes[len(h.sizes)-1]
	g := h.graphFor(n, int64(n*1000))
	fmt.Fprintf(h.out, "(n = %d, deterministic n^4/3 profile)\n\n", n)
	fmt.Fprintln(h.out, "| bandwidth | rounds | step2 blocker | step6 qsink | step1+7 BF |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|--:|")
	sess := h.session(g) // SetBandwidth reaches the warm fleet between runs
	for _, bw := range []int{1, 2, 4, 8} {
		wctx, cancel := h.cellCtx()
		res, err := sess.RunContext(wctx, core.Options{Variant: core.Det43, Bandwidth: bw, SkipLastEdges: true, Parallel: h.parallel})
		cancel()
		if h.handle(err, fmt.Sprintf("bandwidth bw=%d", bw)) {
			continue
		}
		st := stageRounds(res)
		fmt.Fprintf(h.out, "| %d | %d | %d | %d | %d |\n",
			bw, res.Stats.Rounds, st["step2-blocker"], st["step6-qsink"], st["step1-csssp"]+st["step7-extend"])
	}
	fmt.Fprintln(h.out)
}

// unweightedRounds: the O(n) unweighted regime of Table 1's context (the
// Omega(n) lower bound of [6] holds even unweighted).
func (h harness) unweightedRounds() {
	fmt.Fprintln(h.out, "## E12 (context): unweighted APSP in O(n) rounds (pipelined BFS)")
	fmt.Fprintln(h.out)
	fmt.Fprintln(h.out, "| n | rounds | rounds/n | weighted det43 rounds |")
	fmt.Fprintln(h.out, "|--:|--:|--:|--:|")
	for _, n := range h.sizes {
		g := h.graphFor(n, int64(n*1000))
		nw, err := congest.NewNetwork(g, 1)
		if err != nil {
			fatalf("%v", err)
		}
		wctx, cancel := h.cellCtx()
		nw.SetContext(wctx)
		res, err := unweighted.Run(nw, g)
		cancel()
		if h.handle(err, fmt.Sprintf("unweighted n=%d", n)) {
			continue
		}
		if h.verify {
			unit := graph.New(g.N, g.Directed)
			for _, e := range g.Edges() {
				unit.MustAddEdge(e.U, e.V, 1)
			}
			want := graph.FloydWarshall(unit)
			for s := 0; s < g.N; s++ {
				for v := 0; v < g.N; v++ {
					if res.Dist[s][v] != want[s][v] {
						fatalf("unweighted wrong at (%d,%d)", s, v)
					}
				}
			}
		}
		det := h.runVariant(h.session(g), g, core.Det43, 0)
		if det == nil {
			continue
		}
		fmt.Fprintf(h.out, "| %d | %d | %.1f | %d |\n", n, res.Rounds, float64(res.Rounds)/float64(n), det.Stats.Rounds)
	}
	fmt.Fprintln(h.out)
}
